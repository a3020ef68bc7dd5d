#include "multicast/affinity.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"

namespace mcast {

namespace {

// The reference sums: the receivers in a list, summed through distance().
class listed_receiver_sums final : public receiver_distance_sums {
 public:
  explicit listed_receiver_sums(const distance_oracle& distances)
      : distances_(&distances) {}

  void add(node_id site) override { sites_.push_back(site); }

  void remove(node_id site) override {
    const auto it = std::find(sites_.begin(), sites_.end(), site);
    expects(it != sites_.end(), "receiver_distance_sums::remove: no receiver at site");
    *it = sites_.back();
    sites_.pop_back();
  }

  std::uint64_t sum_to(node_id x) const override {
    std::uint64_t sum = 0;
    for (node_id site : sites_) sum += distances_->distance(x, site);
    return sum;
  }

 private:
  const distance_oracle* distances_;
  std::vector<node_id> sites_;
};

// Per-node receiver counts on a heap-ordered k-ary tree: cnt_[a] is the
// number of receivers in a's subtree. The root's count is never read (every
// receiver is below it), so walks stop there.
class kary_receiver_sums final : public receiver_distance_sums {
 public:
  explicit kary_receiver_sums(const kary_shape& shape)
      : k_(shape.k()), cnt_(shape.node_count(), 0) {}

  void add(node_id site) override {
    check(site);
    unsigned depth = 0;
    for (node_id a = site; a != 0; a = (a - 1) / k_) {
      ++cnt_[a];
      ++depth;
    }
    ++receivers_;
    depth_sum_ += depth;
  }

  void remove(node_id site) override {
    check(site);
    expects(receivers_ > 0, "receiver_distance_sums::remove: no receiver at site");
    unsigned depth = 0;
    for (node_id a = site; a != 0; a = (a - 1) / k_) {
      expects(cnt_[a] > 0, "receiver_distance_sums::remove: no receiver at site");
      --cnt_[a];
      ++depth;
    }
    --receivers_;
    depth_sum_ -= depth;
  }

  std::uint64_t sum_to(node_id x) const override {
    check(x);
    std::uint64_t depth = 0;
    std::uint64_t shared = 0;  // Σ_j depth(lca(x, r_j))
    for (node_id a = x; a != 0; a = (a - 1) / k_) {
      shared += cnt_[a];
      ++depth;
    }
    return receivers_ * depth + depth_sum_ - 2 * shared;
  }

 private:
  void check(node_id v) const {
    expects_in_range(v < cnt_.size(), "receiver_distance_sums: node out of range");
  }

  node_id k_;
  std::vector<std::uint32_t> cnt_;
  std::uint64_t receivers_ = 0;
  std::uint64_t depth_sum_ = 0;  // Σ_j depth(r_j)
};

}  // namespace

std::unique_ptr<receiver_distance_sums> distance_oracle::make_receiver_sums() const {
  return std::make_unique<listed_receiver_sums>(*this);
}

std::unique_ptr<receiver_distance_sums> kary_distance_oracle::make_receiver_sums()
    const {
  return std::make_unique<kary_receiver_sums>(shape_);
}

graph_distance_oracle::graph_distance_oracle(const graph& g)
    : g_(&g), rows_(g.node_count()) {}

unsigned graph_distance_oracle::distance(node_id a, node_id b) const {
  expects_in_range(a < g_->node_count() && b < g_->node_count(),
                   "graph_distance_oracle::distance: node out of range");
  if (!rows_[a]) {
    rows_[a] = std::make_unique<std::vector<hop_count>>(bfs_distances(*g_, a));
  }
  const hop_count d = (*rows_[a])[b];
  expects(d != unreachable, "graph_distance_oracle: nodes are disconnected");
  return d;
}

affinity_estimate sample_affinity_tree_size(const source_tree& tree,
                                            const std::vector<node_id>& universe,
                                            std::size_t n,
                                            const distance_oracle& distances,
                                            const affinity_chain_params& params,
                                            rng& gen) {
  expects(n >= 1, "sample_affinity_tree_size: n must be >= 1");
  expects(!universe.empty(), "sample_affinity_tree_size: universe is empty");
  expects(params.measurements >= 1,
          "sample_affinity_tree_size: need at least one measurement");

  // Initial configuration: uniform with replacement.
  std::vector<node_id> r(n);
  for (node_id& site : r) site = universe[gen.below(universe.size())];

  // Sum of pairwise distances, built by adding the receivers one at a time
  // and maintained incrementally. Every sum is an integer below 2^53, so
  // the doubles below are exact.
  const double pairs = static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  const std::unique_ptr<receiver_distance_sums> sums = distances.make_receiver_sums();
  std::uint64_t pair_sum = 0;
  for (node_id site : r) {
    pair_sum += sums->sum_to(site);
    sums->add(site);
  }

  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  auto do_move = [&] {
    ++proposed;
    const std::size_t i = gen.below(n);
    const node_id old_site = r[i];
    const node_id new_site = universe[gen.below(universe.size())];
    if (new_site == old_site) {
      ++accepted;
      return;
    }
    // Price both sites against the other n-1 receivers.
    sums->remove(old_site);
    const std::uint64_t to_new = sums->sum_to(new_site);
    const std::uint64_t to_old = sums->sum_to(old_site);
    const double delta = static_cast<double>(to_new) - static_cast<double>(to_old);
    // W ∝ exp(-beta * d̄); Metropolis acceptance on the change in d̄.
    const double dmean_delta = pairs > 0.0 ? delta / pairs : 0.0;
    const double log_accept = -params.beta * dmean_delta;
    if (log_accept >= 0.0 || gen.uniform() < std::exp(log_accept)) {
      r[i] = new_site;
      pair_sum = pair_sum - to_old + to_new;
      sums->add(new_site);
      ++accepted;
    } else {
      sums->add(old_site);
    }
  };

  const std::uint64_t burn_moves =
      static_cast<std::uint64_t>(params.burn_in_sweeps) * n;
  for (std::uint64_t t = 0; t < burn_moves; ++t) do_move();

  const std::uint64_t sample_moves =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(params.sample_sweeps) * n);
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, sample_moves / params.measurements);

  delivery_tree_builder builder(tree);
  double tree_size_sum = 0.0;
  double pair_mean_sum = 0.0;
  std::size_t measured = 0;
  for (std::uint64_t t = 0; t < sample_moves; ++t) {
    do_move();
    if ((t + 1) % stride == 0) {
      builder.reset();
      for (node_id site : r) builder.add_receiver(site);
      tree_size_sum += static_cast<double>(builder.link_count());
      pair_mean_sum += pairs > 0.0 ? static_cast<double>(pair_sum) / pairs : 0.0;
      ++measured;
    }
  }
  MCAST_ASSERT(measured >= 1);

  affinity_estimate est;
  est.mean_tree_size = tree_size_sum / static_cast<double>(measured);
  est.mean_pair_distance = pair_mean_sum / static_cast<double>(measured);
  est.acceptance_rate =
      proposed == 0 ? 1.0
                    : static_cast<double>(accepted) / static_cast<double>(proposed);
  return est;
}

namespace {

std::vector<std::size_t> greedy_extreme_trajectory(
    const source_tree& tree, const std::vector<node_id>& universe,
    std::size_t n, rng& gen, bool maximize) {
  expects(!universe.empty(), "greedy trajectory: universe is empty");
  expects(n <= universe.size(),
          "greedy trajectory: n exceeds the candidate universe (extreme "
          "placements use distinct sites)");
  const node_id nodes = tree.node_count();
  for (node_id v : universe) {
    expects_in_range(v < nodes, "greedy trajectory: node out of range");
    expects(tree.distance(v) != unreachable,
            "greedy trajectory: site unreachable from source");
  }

  // gain[v] = links on v's rootward path not yet on the delivery tree, i.e.
  // the hops to v's nearest covered ancestor (0 when v is covered). Only
  // the source is covered at the start.
  std::vector<hop_count> gain(nodes);
  for (node_id v = 0; v < nodes; ++v) gain[v] = tree.distance(v);

  // Children of each node on the source tree, as CSR.
  std::vector<node_id> child_begin(static_cast<std::size_t>(nodes) + 1, 0);
  for (node_id v = 0; v < nodes; ++v) {
    const node_id p = tree.parent(v);
    if (p != invalid_node) ++child_begin[p + 1];
  }
  for (node_id v = 0; v < nodes; ++v) child_begin[v + 1] += child_begin[v];
  std::vector<node_id> children(child_begin[nodes]);
  {
    std::vector<node_id> fill(child_begin.begin(), child_begin.end() - 1);
    for (node_id v = 0; v < nodes; ++v) {
      const node_id p = tree.parent(v);
      if (p != invalid_node) children[fill[p]++] = v;
    }
  }

  delivery_tree_builder builder(tree);
  std::vector<char> used(nodes, 0);
  std::vector<node_id> new_path;
  std::vector<node_id> stack;

  std::vector<std::size_t> trajectory;
  trajectory.reserve(n);
  std::vector<node_id> best_sites;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best_gain = 0;
    bool have_any = false;
    best_sites.clear();
    for (node_id v : universe) {
      if (used[v]) continue;  // extreme configurations are distinct sites
      const std::size_t g = gain[v];
      const bool better =
          !have_any || (maximize ? g > best_gain : g < best_gain);
      if (better) {
        best_gain = g;
        best_sites.clear();
        have_any = true;
      }
      if (g == best_gain) best_sites.push_back(v);
    }
    MCAST_ASSERT(!best_sites.empty());
    const node_id chosen = best_sites[gen.below(best_sites.size())];
    used[chosen] = 1;

    // The newly covered path runs from `chosen` up to its nearest covered
    // ancestor. Below it hang uncovered subtrees whose nodes now measure
    // their gain from that path; each node's gain only decreases, so all
    // updates over a trajectory cost O(nodes · depth).
    new_path.clear();
    node_id w = chosen;
    for (hop_count left = gain[chosen]; left > 0; --left) {
      new_path.push_back(w);
      gain[w] = 0;
      w = tree.parent(w);
    }
    const std::size_t gained = builder.add_receiver(chosen);
    MCAST_ASSERT(gained == new_path.size());
    for (node_id u : new_path) {
      for (node_id i = child_begin[u]; i < child_begin[u + 1]; ++i) {
        if (gain[children[i]] == 0) continue;  // the next node down the path
        gain[children[i]] = 1;
        stack.push_back(children[i]);
      }
    }
    while (!stack.empty()) {
      const node_id v = stack.back();
      stack.pop_back();
      for (node_id i = child_begin[v]; i < child_begin[v + 1]; ++i) {
        gain[children[i]] = gain[v] + 1;
        stack.push_back(children[i]);
      }
    }
    trajectory.push_back(builder.link_count());
  }
  return trajectory;
}

}  // namespace

std::vector<std::size_t> greedy_disaffinity_trajectory(
    const source_tree& tree, const std::vector<node_id>& universe,
    std::size_t n, rng& gen) {
  return greedy_extreme_trajectory(tree, universe, n, gen, /*maximize=*/true);
}

std::vector<std::size_t> greedy_affinity_trajectory(
    const source_tree& tree, const std::vector<node_id>& universe,
    std::size_t n, rng& gen) {
  return greedy_extreme_trajectory(tree, universe, n, gen, /*maximize=*/false);
}

std::uint64_t extreme_disaffinity_kary_tree_size(unsigned k, unsigned depth,
                                                 std::uint64_t m) {
  expects(k >= 2, "extreme_disaffinity_kary_tree_size: k must be >= 2");
  std::uint64_t total = 0;
  std::uint64_t level_width = 1;
  for (unsigned l = 1; l <= depth; ++l) {
    expects(level_width <= ~0ULL / k, "extreme_disaffinity: tree too large");
    level_width *= k;
    total += std::min<std::uint64_t>(m, level_width);
  }
  expects(m <= level_width,
          "extreme_disaffinity_kary_tree_size: m exceeds leaf count");
  return total;
}

std::uint64_t extreme_affinity_kary_tree_size(unsigned k, unsigned depth,
                                              std::uint64_t m) {
  expects(k >= 2, "extreme_affinity_kary_tree_size: k must be >= 2");
  expects(m >= 1, "extreme_affinity_kary_tree_size: m must be >= 1");
  std::uint64_t leaves = 1;
  for (unsigned l = 0; l < depth; ++l) {
    expects(leaves <= ~0ULL / k, "extreme_affinity: tree too large");
    leaves *= k;
  }
  expects(m <= leaves, "extreme_affinity_kary_tree_size: m exceeds leaf count");
  // Σ_{l=1..D} ceil(m / k^{D-l}): walk l downward so the divisor grows.
  std::uint64_t total = 0;
  std::uint64_t divisor = 1;
  for (unsigned l = depth; l >= 1; --l) {
    total += (m + divisor - 1) / divisor;
    if (l > 1) {
      expects(divisor <= ~0ULL / k, "extreme_affinity: tree too large");
      divisor *= k;
    }
  }
  return total;
}

}  // namespace mcast
