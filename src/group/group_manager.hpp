// Group membership control plane (extension) — named, long-lived groups.
//
// The Chuang-Sirbu law prices a group frozen at size m; a serving system
// holds groups that *live*: members join, leave, and the delivery tree
// grafts and prunes branches as they do. This manager is the stateful
// layer between the data-plane primitive (multicast/dynamic_tree.hpp,
// O(path) graft/prune via link refcounts) and everything that drives it —
// the churn workloads (group/churn.hpp), the session simulator
// (session/simulator.cpp) and the live `group_*` service ops
// (service/ops_group.cpp).
//
// A group is keyed by (scope, name): the scope is an opaque partition
// label its creator chooses — the query service uses the canonical
// topology key ("ts1000:7:300"), so every group of one topology shares a
// scope. Two routing modes mirror the tree families the library measures:
//
//   * source mode — the tree is rooted at a fixed sender (the paper's
//     source-specific SPT model);
//   * shared mode — the root is a rendezvous core chosen by the
//     ext_shared_tree strategies (multicast/shared_tree.hpp), so the
//     group tracks the receivers->core union of a CBT/PIM-SM shared tree.
//
// Determinism contract: every mutation runs under the manager mutex and a
// group's state is a pure function of the op sequence applied to it — no
// wall clock, no thread identity, no iteration-order dependence. N
// threads mutating disjoint groups therefore leave byte-identical state
// to any serial interleaving of their per-group sequences (locked down by
// tests/test_group.cpp and the service loopback suite).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weights.hpp"
#include "multicast/dynamic_tree.hpp"
#include "multicast/shared_tree.hpp"
#include "multicast/spt.hpp"

namespace mcast {

/// How a group routes: rooted at a fixed source, or at a chosen core.
enum class group_mode { source, shared };

/// Creation-time routing choices for the graph-backed create() overload.
struct group_config {
  group_mode mode = group_mode::source;
  /// Source mode: the sender the tree is rooted at.
  node_id root = 0;
  /// Shared mode: core placement strategy and the seed of its RNG draw
  /// (the ext_shared_tree knobs; deterministic given the seed).
  core_strategy core = core_strategy::path_center;
  std::uint64_t core_seed = 1;
  std::size_t core_probes = 16;
  /// Optional cost model: when set, snapshots report the weighted link
  /// sum as `cost`. Must outlive the group and match the graph.
  const edge_weights* weights = nullptr;
};

/// Point-in-time view of one group; every mutating call returns the
/// post-op snapshot so callers never need a second lookup.
struct group_snapshot {
  std::string scope;
  std::string name;
  group_mode mode = group_mode::source;
  node_id root = 0;
  /// Bumped on every successful mutation (join/leave/rebase); create is
  /// generation 0. Lets clients detect missed updates cheaply.
  std::uint64_t generation = 0;
  std::size_t members = 0;  ///< receiver instances currently joined
  std::size_t sites = 0;    ///< distinct nodes hosting >= 1 instance
  std::size_t links = 0;    ///< current delivery-tree links
  double cost = 0.0;        ///< weighted link sum (== links unweighted)
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t links_grafted = 0;  ///< links gained across all joins
  std::uint64_t links_pruned = 0;   ///< links dropped across all leaves
  std::size_t peak_members = 0;
  std::size_t peak_links = 0;
  /// Links the op producing this snapshot gained/dropped (0 for reads).
  std::size_t last_grafted = 0;
  std::size_t last_pruned = 0;
};

/// Thread-safe registry of live groups. All operations are O(path) in the
/// tree walk plus one ordered-map lookup; list() is O(groups).
class group_manager {
 public:
  group_manager() = default;

  group_manager(const group_manager&) = delete;
  group_manager& operator=(const group_manager&) = delete;

  /// Creates a group routed over `g` per `config` (source mode: BFS tree
  /// from config.root; shared mode: BFS tree from the chosen core).
  /// Throws std::invalid_argument on a duplicate key or an empty name,
  /// std::out_of_range on an out-of-range root.
  group_snapshot create(const std::string& scope, const std::string& name,
                        std::shared_ptr<const graph> g,
                        const group_config& config);

  /// Embedder path: the caller supplies the routing base directly (e.g.
  /// the session simulator's SPT over a degraded view). Mode is `source`
  /// with root = routing->source(); `weights`, when set, must outlive the
  /// group and match the routing topology.
  group_snapshot create(const std::string& scope, const std::string& name,
                        std::shared_ptr<const source_tree> routing,
                        const edge_weights* weights = nullptr);

  /// Adds `count` receiver instances at `site`, grafting missing links.
  /// Throws std::invalid_argument for an unknown group or an unreachable
  /// site, std::out_of_range for a site outside the topology.
  group_snapshot join(const std::string& scope, const std::string& name,
                      node_id site, std::uint32_t count = 1);

  /// Removes `count` receiver instances at `site`, pruning emptied links.
  /// Throws std::invalid_argument when fewer than `count` instances are
  /// joined there.
  group_snapshot leave(const std::string& scope, const std::string& name,
                       node_id site, std::uint32_t count = 1);

  /// Read-only snapshot; throws std::invalid_argument for unknown groups.
  group_snapshot stats(const std::string& scope,
                       const std::string& name) const;

  /// Replaces the routing base and delivery tree in one step — the repair
  /// hook: the session simulator re-converges a group onto a degraded
  /// view and hands the rebuilt tree back here. Counters survive, the
  /// generation bumps, and links/cost re-sync to the new tree (the link
  /// delta is deliberately NOT counted as graft/prune: it is convergence
  /// churn, not membership churn).
  group_snapshot rebase(const std::string& scope, const std::string& name,
                        std::shared_ptr<const source_tree> routing,
                        std::unique_ptr<dynamic_delivery_tree> delivery);

  /// The live delivery tree (for embedders that need to hand it to
  /// repair_delivery_tree). The reference is invalidated by rebase/erase;
  /// throws std::invalid_argument for unknown groups.
  const dynamic_delivery_tree& delivery(const std::string& scope,
                                        const std::string& name) const;

  bool contains(const std::string& scope, const std::string& name) const;

  /// Drops a group; false when it does not exist.
  bool erase(const std::string& scope, const std::string& name);

  /// Snapshots of every live group, sorted by (scope, name) — the
  /// deterministic order the `group_list` op renders regardless of which
  /// thread created which group.
  std::vector<group_snapshot> list() const;

  std::size_t size() const;

 private:
  struct group_state {
    group_mode mode = group_mode::source;
    std::shared_ptr<const graph> keepalive;  ///< null on the embedder path
    std::shared_ptr<const source_tree> routing;
    std::unique_ptr<dynamic_delivery_tree> delivery;
    std::uint64_t generation = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t links_grafted = 0;
    std::uint64_t links_pruned = 0;
    std::size_t peak_members = 0;
    std::size_t peak_links = 0;
  };
  using group_key = std::pair<std::string, std::string>;

  group_snapshot insert_locked(const std::string& scope,
                               const std::string& name, group_state state);
  group_state& find_locked(const std::string& scope, const std::string& name);
  const group_state& find_locked(const std::string& scope,
                                 const std::string& name) const;
  group_snapshot snapshot_locked(const group_key& key,
                                 const group_state& state) const;

  mutable std::mutex mu_;
  std::map<group_key, group_state> groups_;
};

}  // namespace mcast
