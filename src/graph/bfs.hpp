// Breadth-first search: hop-count shortest paths and shortest-path trees.
//
// The paper's multicast model is source-specific shortest-path routing
// (Section 1, footnote 1): packets to each receiver follow a shortest path
// from the source, and the delivery tree is the union of those paths. BFS
// from the source yields both the distance field (unicast path lengths) and
// one canonical shortest-path tree via parent pointers.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "graph/graph.hpp"

namespace mcast {

class traversal_workspace;  // graph/workspace.hpp

/// Hop distance type; `unreachable` marks nodes in other components.
using hop_count = std::uint32_t;
inline constexpr hop_count unreachable = std::numeric_limits<hop_count>::max();

/// Result of a single-source BFS.
struct bfs_tree {
  node_id source = invalid_node;
  /// dist[v] = hops from source to v, or `unreachable`.
  std::vector<hop_count> dist;
  /// parent[v] = predecessor of v on one shortest path (lowest-id neighbor
  /// rule, making the tree deterministic); parent[source] = invalid_node,
  /// parent[v] = invalid_node for unreachable v.
  std::vector<node_id> parent;

  /// Maximum finite distance (graph eccentricity of the source).
  hop_count eccentricity() const;

  /// Number of nodes with finite distance (including the source).
  std::size_t reached_count() const;
};

/// Runs BFS from `source`. Throws std::out_of_range on a bad source id.
bfs_tree bfs_from(const graph& g, node_id source);

/// Distances only (skips parent bookkeeping; same semantics as bfs_from).
std::vector<hop_count> bfs_distances(const graph& g, node_id source);

/// Workspace-accepting overload: bit-identical output to
/// bfs_from(g, source), but reuses the workspace scratch and `out`'s
/// capacity — no allocation once both are warm. Returns `out`.
bfs_tree& bfs_from(const graph& g, node_id source, traversal_workspace& ws,
                   bfs_tree& out);

/// Distance field into a reused vector (same semantics as bfs_distances).
std::vector<hop_count>& bfs_distances(const graph& g, node_id source,
                                      traversal_workspace& ws,
                                      std::vector<hop_count>& out);

/// Randomized-parent BFS: among the equal-distance predecessors of each
/// node, one is chosen uniformly using the caller-supplied stream of random
/// numbers. Used by the SPT tie-breaking ablation (DESIGN.md §6.1).
/// `pick(k)` must return a value in [0, k).
template <typename pick_fn>
bfs_tree bfs_from_random_parents(const graph& g, node_id source, pick_fn&& pick);

/// Bit-parallel BFS from up to 64 sources at once: source i owns bit i of a
/// per-node word, and each level is one sweep over all nodes that ORs the
/// neighbours' frontier words. `visit(v, d, mask)` is called once for each
/// node v and each distance d at which some sources first reach it; `mask`
/// holds exactly those sources' bits, so every reachable (source, node)
/// pair is reported once with its hop distance (d = 0 for the sources
/// themselves; a source listed twice owns two bits). Nodes are visited in
/// ascending id within a level, levels in ascending d. Cost O(D·(V+E)) for
/// the whole batch, D the largest distance reached. Throws
/// std::invalid_argument for more than 64 sources, std::out_of_range on a
/// bad source id.
template <typename visit_fn>
void bfs_batch(const graph& g, std::span<const node_id> sources, visit_fn&& visit);

// --- implementation of the templates ---

template <typename pick_fn>
bfs_tree bfs_from_random_parents(const graph& g, node_id source, pick_fn&& pick) {
  bfs_tree t = bfs_from(g, source);  // validates + gives distances
  // Re-draw each parent uniformly among eligible predecessors.
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (v == source || t.dist[v] == unreachable) continue;
    std::uint32_t eligible = 0;
    for (node_id w : g.neighbors(v)) {
      if (t.dist[w] + 1 == t.dist[v]) ++eligible;
    }
    std::uint32_t chosen = static_cast<std::uint32_t>(pick(eligible));
    for (node_id w : g.neighbors(v)) {
      if (t.dist[w] + 1 == t.dist[v]) {
        if (chosen == 0) {
          t.parent[v] = w;
          break;
        }
        --chosen;
      }
    }
  }
  return t;
}

template <typename visit_fn>
void bfs_batch(const graph& g, std::span<const node_id> sources, visit_fn&& visit) {
  expects(sources.size() <= 64, "bfs_batch: at most 64 sources per batch");
  const node_id n = g.node_count();
  std::vector<std::uint64_t> seen(n, 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expects_in_range(sources[i] < n, "bfs_batch: source id out of range");
    seen[sources[i]] |= std::uint64_t{1} << i;
  }
  for (node_id v = 0; v < n; ++v) {
    if (seen[v] != 0) visit(v, hop_count{0}, seen[v]);
  }
  const std::uint64_t all =
      sources.size() == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << sources.size()) - 1;
  std::vector<std::uint64_t> frontier = seen;
  std::vector<std::uint64_t> next(n, 0);
  for (hop_count d = 1;; ++d) {
    bool grew = false;
    for (node_id v = 0; v < n; ++v) {
      std::uint64_t reach = 0;
      if (seen[v] != all) {
        for (node_id w : g.neighbors(v)) reach |= frontier[w];
        reach &= ~seen[v];
      }
      next[v] = reach;
      if (reach != 0) {
        seen[v] |= reach;
        grew = true;
        visit(v, d, reach);
      }
    }
    if (!grew) return;
    frontier.swap(next);
  }
}

}  // namespace mcast
