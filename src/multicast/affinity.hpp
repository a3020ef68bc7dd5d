// Receiver affinity and disaffinity (Section 5 of the paper).
//
// The paper weights receiver configurations α by W_α(β) ∝ exp(−β·d̄(α)),
// where d̄(α) is the mean pairwise hop distance between receivers: β > 0
// makes receivers cluster (teleconference), β < 0 makes them spread out
// (sensor network), β = 0 recovers the uniform model. Three tools here:
//
//  * metropolis_affinity_sampler — samples configurations from W_α(β) with
//    a Metropolis–Hastings chain (move one receiver to a uniform site) and
//    measures the mean delivery-tree size L̂_β(n). This regenerates Fig 9.
//  * greedy extreme placements — the β = ±∞ limits, built constructively
//    by maximizing (disaffinity) or minimizing (affinity) the marginal
//    links each new receiver adds (Sections 5.2/5.3).
//  * closed forms for k-ary trees with receivers at leaves — Eq 33–38:
//    extreme_disaffinity_kary_tree_size  L₋∞(m) = Σ_l min(m, k^l)
//    extreme_affinity_kary_tree_size     L∞(m) = Σ_l ceil(m / k^{D−l})
//    (the paper prints these via the ΔL sequences; the sums here are the
//    closed evaluations, verified against the sequences in tests).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "multicast/delivery_tree.hpp"
#include "multicast/spt.hpp"
#include "sim/rng.hpp"
#include "topo/kary.hpp"

namespace mcast {

/// Running Σ_j d(x, r_j) over a multiset of receiver sites r_j: the sum a
/// Metropolis move needs to re-price one receiver against the rest. Made
/// by a distance_oracle, which picks the method; one instance per chain.
class receiver_distance_sums {
 public:
  receiver_distance_sums() = default;
  receiver_distance_sums(const receiver_distance_sums&) = delete;
  receiver_distance_sums& operator=(const receiver_distance_sums&) = delete;
  virtual ~receiver_distance_sums() = default;
  /// Adds one receiver at `site` (sites may repeat).
  virtual void add(node_id site) = 0;
  /// Removes one receiver at `site`; one must be present.
  virtual void remove(node_id site) = 0;
  /// Σ over the current receivers r_j of d(x, r_j).
  virtual std::uint64_t sum_to(node_id x) const = 0;
};

/// Pairwise hop-distance provider for the affinity model.
class distance_oracle {
 public:
  virtual ~distance_oracle() = default;
  /// Hop distance between nodes a and b.
  virtual unsigned distance(node_id a, node_id b) const = 0;
  /// Empty running sums for one chain; they must not outlive the oracle.
  /// The default keeps the receivers in a list and sums distance() over
  /// it, O(n) per sum_to.
  virtual std::unique_ptr<receiver_distance_sums> make_receiver_sums() const;
};

/// Distances on a complete k-ary tree by index arithmetic. Its running
/// sums keep per-node receiver counts cnt(a), so that
///   Σ_j d(x, r_j) = n·depth(x) + Σ_j depth(r_j) − 2·Σ_{a ∈ path(x)} cnt(a)
/// (path(x) = x and its ancestors below the root) costs O(depth).
class kary_distance_oracle final : public distance_oracle {
 public:
  explicit kary_distance_oracle(kary_shape shape) : shape_(std::move(shape)) {}
  unsigned distance(node_id a, node_id b) const override {
    return shape_.distance(a, b);
  }
  std::unique_ptr<receiver_distance_sums> make_receiver_sums() const override;

 private:
  kary_shape shape_;
};

/// BFS-backed distances on an arbitrary graph; rows are computed lazily and
/// cached (memory: one row per distinct node ever queried as `a`).
class graph_distance_oracle final : public distance_oracle {
 public:
  /// The graph must outlive the oracle.
  explicit graph_distance_oracle(const graph& g);
  unsigned distance(node_id a, node_id b) const override;

 private:
  const graph* g_;
  mutable std::vector<std::unique_ptr<std::vector<hop_count>>> rows_;
};

/// Tuning for the Metropolis chain. Effort is expressed in sweeps: one
/// sweep = n proposed single-receiver moves.
struct affinity_chain_params {
  double beta = 0.0;            ///< affinity strength (paper's β)
  unsigned burn_in_sweeps = 12; ///< sweeps discarded before measuring
  unsigned sample_sweeps = 6;   ///< sweeps spanned by the measurement phase
  unsigned measurements = 12;   ///< L̂ evaluations averaged over that span
};

/// Result of one chain run.
struct affinity_estimate {
  double mean_tree_size = 0.0;      ///< ⟨L⟩ under W(β)
  double mean_pair_distance = 0.0;  ///< ⟨d̄⟩ under W(β) (diagnostic)
  double acceptance_rate = 0.0;     ///< fraction of accepted moves
};

/// Estimates L̂_β(n): places n receivers (with replacement) from `universe`
/// under the affinity weight and returns the averaged delivery-tree size.
/// Deterministic given `gen`'s state, and the same for every oracle that
/// reports the same distances. Each move re-prices one receiver through
/// the oracle's receiver_distance_sums. Requires n >= 1 and a non-empty
/// universe; receivers must be reachable from the tree's source.
affinity_estimate sample_affinity_tree_size(const source_tree& tree,
                                            const std::vector<node_id>& universe,
                                            std::size_t n,
                                            const distance_oracle& distances,
                                            const affinity_chain_params& params,
                                            rng& gen);

/// β = −∞ (extreme disaffinity): adds n *distinct* receivers greedily, each
/// maximizing the links gained; ties broken uniformly at random. Returns the
/// tree-size trajectory L(1..n). Requires n <= universe.size() (extreme
/// configurations place receivers at distinct sites — with replacement the
/// β=+∞ limit degenerates to "everyone at one site", paper Section 5.3).
/// Every universe site must be reachable from the tree's source.
std::vector<std::size_t> greedy_disaffinity_trajectory(
    const source_tree& tree, const std::vector<node_id>& universe,
    std::size_t n, rng& gen);

/// β = +∞ (extreme affinity): same, minimizing the links gained.
std::vector<std::size_t> greedy_affinity_trajectory(
    const source_tree& tree, const std::vector<node_id>& universe,
    std::size_t n, rng& gen);

/// Closed form for L₋∞(m) on a k-ary tree of depth D with receivers at
/// leaves: Σ_{l=1..D} min(m, k^l). Requires m <= k^D.
std::uint64_t extreme_disaffinity_kary_tree_size(unsigned k, unsigned depth,
                                                 std::uint64_t m);

/// Closed form for L∞(m) on a k-ary tree of depth D with receivers at
/// leaves (leftmost-packed): Σ_{l=1..D} ceil(m / k^{D-l}). Requires
/// 1 <= m <= k^D.
std::uint64_t extreme_affinity_kary_tree_size(unsigned k, unsigned depth,
                                              std::uint64_t m);

}  // namespace mcast
