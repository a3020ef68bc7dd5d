// Affinity model (Section 5): distance oracles, extreme-β closed forms vs
// greedy construction, Metropolis chain behaviour across β, and the
// incremental fast paths (receiver counts, greedy gains) against their
// O(n) and per-candidate references.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/stats.hpp"
#include "multicast/affinity.hpp"
#include "multicast/receivers.hpp"
#include "topo/kary.hpp"
#include "topo/regular.hpp"
#include "topo/waxman.hpp"

namespace mcast {
namespace {

TEST(distance_oracle, kary_matches_graph) {
  const kary_shape shape(2, 4);
  const graph g = shape.to_graph();
  const kary_distance_oracle fast(shape);
  const graph_distance_oracle slow(g);
  for (node_id a = 0; a < g.node_count(); a += 3) {
    for (node_id b = 0; b < g.node_count(); b += 5) {
      EXPECT_EQ(fast.distance(a, b), slow.distance(a, b));
    }
  }
}

TEST(distance_oracle, graph_oracle_errors) {
  const graph g = make_path(3);
  const graph_distance_oracle o(g);
  EXPECT_THROW(o.distance(0, 5), std::out_of_range);
}

// Both kinds of running sums must agree with a direct sum of distances
// through adds, repeats and removes.
TEST(distance_oracle, receiver_sums_match_direct_sums) {
  const kary_shape shape(3, 3);
  const graph g = shape.to_graph();
  const kary_distance_oracle counted(shape);
  const graph_distance_oracle listed(g);
  const auto fast = counted.make_receiver_sums();
  const auto slow = listed.make_receiver_sums();
  const std::vector<node_id> sites = {0, 5, 5, 17, 39, 12, 0, 39};
  std::vector<node_id> present;
  auto expect_direct = [&] {
    for (node_id x = 0; x < g.node_count(); ++x) {
      std::uint64_t direct = 0;
      for (node_id r : present) direct += counted.distance(x, r);
      ASSERT_EQ(fast->sum_to(x), direct) << "x=" << x;
      ASSERT_EQ(slow->sum_to(x), direct) << "x=" << x;
    }
  };
  for (node_id site : sites) {
    fast->add(site);
    slow->add(site);
    present.push_back(site);
    expect_direct();
  }
  for (node_id site : {node_id{5}, node_id{0}, node_id{39}}) {
    fast->remove(site);
    slow->remove(site);
    present.erase(std::find(present.begin(), present.end(), site));
    expect_direct();
  }
  EXPECT_THROW(fast->remove(7), std::invalid_argument);
  EXPECT_THROW(slow->remove(7), std::invalid_argument);
  EXPECT_THROW(fast->add(40), std::out_of_range);
  EXPECT_THROW(fast->sum_to(40), std::out_of_range);
}

TEST(extreme_closed_forms, disaffinity_matches_paper_sequence) {
  // Eq 33 area: ΔL(j) = D - i for j (receivers already placed) in
  // [k^i, k^{i+1}), with ΔL(0) = D. Here delta = L(m) - L(m-1) = ΔL(m-1).
  const unsigned k = 2, d = 5;
  std::uint64_t prev = 0;
  for (std::uint64_t m = 1; m <= 32; ++m) {
    const std::uint64_t lm = extreme_disaffinity_kary_tree_size(k, d, m);
    const std::uint64_t delta = lm - prev;
    const std::uint64_t j = m - 1;
    std::uint64_t level = 0;
    while (j > 0 && (1ULL << (level + 1)) <= j) ++level;
    EXPECT_EQ(delta, d - level) << "m=" << m;
    prev = lm;
  }
}

TEST(extreme_closed_forms, disaffinity_anchor_values) {
  // L(1)=D, L(k)=kD, L(k^2)=kD + k(k-1)(D-1) (Section 5.2).
  for (unsigned k : {2u, 3u, 4u}) {
    const unsigned d = 6;
    EXPECT_EQ(extreme_disaffinity_kary_tree_size(k, d, 1), d);
    EXPECT_EQ(extreme_disaffinity_kary_tree_size(k, d, k), k * d);
    EXPECT_EQ(extreme_disaffinity_kary_tree_size(k, d, k * k),
              k * d + k * (k - 1) * (d - 1));
  }
}

TEST(extreme_closed_forms, affinity_matches_paper_sequence) {
  // Section 5.3 binary sequence: ΔL = D,1,2,1,3,1,2,1,...
  const unsigned d = 6;
  const std::uint64_t expected_delta[] = {6, 1, 2, 1, 3, 1, 2, 1};
  std::uint64_t prev = 0;
  for (std::uint64_t m = 1; m <= 8; ++m) {
    const std::uint64_t lm = extreme_affinity_kary_tree_size(2, d, m);
    EXPECT_EQ(lm - prev, expected_delta[m - 1]) << "m=" << m;
    prev = lm;
  }
}

TEST(extreme_closed_forms, affinity_anchor_values) {
  // L(k^l) = (D - l) + (k^{l+1} - k)/(k - 1): root path + full subtree.
  for (unsigned k : {2u, 3u}) {
    const unsigned d = 5;
    for (unsigned l = 0; l <= 3; ++l) {
      std::uint64_t kl = 1;
      for (unsigned i = 0; i < l; ++i) kl *= k;
      const std::uint64_t subtree = (kl * k - k) / (k - 1);
      EXPECT_EQ(extreme_affinity_kary_tree_size(k, d, kl), (d - l) + subtree)
          << "k=" << k << " l=" << l;
    }
  }
}

TEST(extreme_closed_forms, extremes_bound_each_other) {
  for (std::uint64_t m = 1; m <= 64; ++m) {
    EXPECT_LE(extreme_affinity_kary_tree_size(2, 6, m),
              extreme_disaffinity_kary_tree_size(2, 6, m));
  }
}

TEST(extreme_closed_forms, domain_errors) {
  EXPECT_THROW(extreme_affinity_kary_tree_size(1, 3, 1), std::invalid_argument);
  EXPECT_THROW(extreme_affinity_kary_tree_size(2, 3, 0), std::invalid_argument);
  EXPECT_THROW(extreme_affinity_kary_tree_size(2, 3, 9), std::invalid_argument);
  EXPECT_THROW(extreme_disaffinity_kary_tree_size(2, 3, 9), std::invalid_argument);
}

TEST(greedy, trajectories_match_closed_forms_on_kary_leaves) {
  const kary_shape shape(2, 4);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const std::vector<node_id> leaves =
      leaf_sites(shape.first_leaf(), shape.leaf_count());
  rng gen(11);
  const auto spread = greedy_disaffinity_trajectory(tree, leaves, 16, gen);
  const auto packed = greedy_affinity_trajectory(tree, leaves, 16, gen);
  ASSERT_EQ(spread.size(), 16u);
  for (std::uint64_t m = 1; m <= 16; ++m) {
    EXPECT_EQ(spread[m - 1], extreme_disaffinity_kary_tree_size(2, 4, m))
        << "greedy disaffinity diverges at m=" << m;
    EXPECT_EQ(packed[m - 1], extreme_affinity_kary_tree_size(2, 4, m))
        << "greedy affinity diverges at m=" << m;
  }
}

// The next raw draws of two generators agree iff (in practice) their
// xoshiro states do.
void expect_same_stream(rng& a, rng& b, const std::string& where) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b()) << where;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Differential test of the Metropolis move: the k-ary oracle's receiver
// counts against the O(n) reference over graph distances must give the same
// estimate bits and leave the generator in the same state. n = 300 exceeds
// both universes, so sites repeat; the k = 3 universe includes the source.
TEST(metropolis, kary_counts_match_graph_reference_bitwise) {
  for (unsigned k : {2u, 3u}) {
    const kary_shape shape(k, k == 2 ? 5 : 3);
    const graph g = shape.to_graph();
    const source_tree tree(g, 0);
    const std::vector<node_id> universe =
        k == 2 ? all_sites_except(g, 0) : leaf_sites(0, shape.node_count());
    const kary_distance_oracle counted(shape);
    const graph_distance_oracle reference(g);
    for (std::size_t n : {1u, 2u, 3u, 17u, 300u}) {
      for (double beta : {-10.0, -1.0, 0.0, 1.0, 10.0}) {
        for (unsigned burn : {0u, 4u}) {
          affinity_chain_params params;
          params.beta = beta;
          params.burn_in_sweeps = burn;
          params.sample_sweeps = 3;
          params.measurements = 5;
          const std::uint64_t seed = 1000 * k + 10 * n + burn;
          rng fast_gen(seed);
          rng slow_gen(seed);
          const affinity_estimate fast = sample_affinity_tree_size(
              tree, universe, n, counted, params, fast_gen);
          const affinity_estimate slow = sample_affinity_tree_size(
              tree, universe, n, reference, params, slow_gen);
          const std::string where = "k=" + std::to_string(k) +
                                    " n=" + std::to_string(n) +
                                    " beta=" + std::to_string(beta) +
                                    " burn=" + std::to_string(burn);
          EXPECT_EQ(bits(fast.mean_tree_size), bits(slow.mean_tree_size)) << where;
          EXPECT_EQ(bits(fast.mean_pair_distance), bits(slow.mean_pair_distance))
              << where;
          EXPECT_EQ(bits(fast.acceptance_rate), bits(slow.acceptance_rate)) << where;
          expect_same_stream(fast_gen, slow_gen, where);
        }
      }
    }
  }
}

// The greedy construction as first written: each step walks every unused
// candidate to the delivery tree. Reference for the incremental gains.
std::vector<std::size_t> reference_greedy(const source_tree& tree,
                                          const std::vector<node_id>& universe,
                                          std::size_t n, rng& gen, bool maximize) {
  delivery_tree_builder builder(tree);
  std::vector<char> used(tree.node_count(), 0);
  auto gain_of = [&](node_id v) {
    std::size_t gain = 0;
    for (node_id w = v; !builder.covers(w); w = tree.parent(w)) ++gain;
    return gain;
  };
  std::vector<std::size_t> trajectory;
  std::vector<node_id> best_sites;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best_gain = 0;
    bool have_any = false;
    best_sites.clear();
    for (node_id v : universe) {
      if (used[v]) continue;
      const std::size_t gain = gain_of(v);
      if (!have_any || (maximize ? gain > best_gain : gain < best_gain)) {
        best_gain = gain;
        best_sites.clear();
        have_any = true;
      }
      if (gain == best_gain) best_sites.push_back(v);
    }
    const node_id chosen = best_sites[gen.below(best_sites.size())];
    used[chosen] = 1;
    builder.add_receiver(chosen);
    trajectory.push_back(builder.link_count());
  }
  return trajectory;
}

void expect_greedy_matches_reference(const source_tree& tree,
                                     const std::vector<node_id>& universe,
                                     const std::string& where) {
  for (bool maximize : {true, false}) {
    rng fast_gen(404);
    rng slow_gen(404);
    const auto fast =
        maximize ? greedy_disaffinity_trajectory(tree, universe, universe.size(), fast_gen)
                 : greedy_affinity_trajectory(tree, universe, universe.size(), fast_gen);
    const auto slow = reference_greedy(tree, universe, universe.size(), slow_gen, maximize);
    const std::string label = where + (maximize ? " (spread)" : " (clustered)");
    EXPECT_EQ(fast, slow) << label;
    expect_same_stream(fast_gen, slow_gen, label);
  }
}

TEST(greedy, incremental_gains_match_reference_on_kary_trees) {
  for (unsigned k : {2u, 3u}) {
    const kary_shape shape(k, k == 2 ? 6 : 4);
    const graph g = shape.to_graph();
    const source_tree tree(g, 0);
    const std::string where = "k=" + std::to_string(k);
    expect_greedy_matches_reference(
        tree, leaf_sites(shape.first_leaf(), shape.leaf_count()), where + " leaves");
    expect_greedy_matches_reference(tree, all_sites_except(g, 0), where + " all sites");
  }
}

// On a general graph the gains come from the BFS source tree, whose
// branches are uneven.
TEST(greedy, incremental_gains_match_reference_on_graphs) {
  const graph grid = make_grid(7, 9);
  expect_greedy_matches_reference(source_tree(grid, 31), all_sites_except(grid, 31),
                                  "grid 7x9");
  waxman_params wp;
  wp.nodes = 150;
  const graph wax = make_waxman(wp, 17);
  expect_greedy_matches_reference(source_tree(wax, 0), all_sites_except(wax, 0),
                                  "waxman 150");
}

TEST(greedy, rejects_unreachable_or_out_of_range_sites) {
  const graph g = make_path(3);
  const source_tree tree(g, 0);
  rng gen(1);
  EXPECT_THROW(greedy_affinity_trajectory(tree, {1, 7}, 1, gen), std::out_of_range);
  waxman_params wp;
  wp.nodes = 30;
  wp.ensure_connected = false;
  wp.alpha = 0.01;
  const graph sparse = make_waxman(wp, 3);
  const source_tree partial(sparse, 0);
  std::vector<node_id> cut_off;
  for (node_id v = 0; v < sparse.node_count(); ++v) {
    if (partial.distance(v) == unreachable) cut_off.push_back(v);
  }
  ASSERT_FALSE(cut_off.empty());
  EXPECT_THROW(greedy_disaffinity_trajectory(partial, cut_off, 1, gen),
               std::invalid_argument);
}

TEST(metropolis, beta_zero_matches_uniform_sampling) {
  const kary_shape shape(2, 6);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const std::vector<node_id> universe = all_sites_except(g, 0);
  const kary_distance_oracle oracle(shape);

  // Uniform (direct) estimate of E[L] for n=20 with replacement.
  rng gen(21);
  running_stats direct;
  delivery_tree_builder builder(tree);
  for (int rep = 0; rep < 400; ++rep) {
    builder.reset();
    for (node_id v : sample_with_replacement(universe, 20, gen)) {
      builder.add_receiver(v);
    }
    direct.add(static_cast<double>(builder.link_count()));
  }

  affinity_chain_params params;
  params.beta = 0.0;
  params.burn_in_sweeps = 4;
  params.sample_sweeps = 30;
  params.measurements = 60;
  running_stats chain;
  for (int rep = 0; rep < 10; ++rep) {
    rng local(100 + rep);
    chain.add(sample_affinity_tree_size(tree, universe, 20, oracle, params, local)
                  .mean_tree_size);
  }
  EXPECT_NEAR(chain.mean(), direct.mean(), 0.05 * direct.mean());
}

TEST(metropolis, beta_zero_accepts_everything) {
  const kary_shape shape(2, 4);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const kary_distance_oracle oracle(shape);
  affinity_chain_params params;
  params.beta = 0.0;
  rng gen(5);
  const auto est = sample_affinity_tree_size(tree, all_sites_except(g, 0), 10,
                                             oracle, params, gen);
  EXPECT_DOUBLE_EQ(est.acceptance_rate, 1.0);
}

TEST(metropolis, affinity_shrinks_and_disaffinity_grows_tree) {
  const kary_shape shape(2, 7);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const std::vector<node_id> universe = all_sites_except(g, 0);
  const kary_distance_oracle oracle(shape);

  auto run = [&](double beta) {
    affinity_chain_params params;
    params.beta = beta;
    params.burn_in_sweeps = 30;
    params.sample_sweeps = 10;
    rng gen(31);
    return sample_affinity_tree_size(tree, universe, 24, oracle, params, gen);
  };
  const auto clustered = run(10.0);
  const auto uniform = run(0.0);
  const auto spread = run(-10.0);
  EXPECT_LT(clustered.mean_tree_size, uniform.mean_tree_size);
  EXPECT_GT(spread.mean_tree_size, uniform.mean_tree_size);
  EXPECT_LT(clustered.mean_pair_distance, uniform.mean_pair_distance);
  EXPECT_GT(spread.mean_pair_distance, uniform.mean_pair_distance);
}

TEST(metropolis, single_receiver_degenerates_gracefully) {
  const kary_shape shape(2, 4);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const kary_distance_oracle oracle(shape);
  affinity_chain_params params;
  params.beta = 5.0;  // irrelevant with no pairs
  rng gen(1);
  const auto est = sample_affinity_tree_size(tree, all_sites_except(g, 0), 1,
                                             oracle, params, gen);
  EXPECT_GT(est.mean_tree_size, 0.0);
  EXPECT_LE(est.mean_tree_size, 4.0);
  EXPECT_DOUBLE_EQ(est.mean_pair_distance, 0.0);
}

TEST(metropolis, parameter_validation) {
  const kary_shape shape(2, 3);
  const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const kary_distance_oracle oracle(shape);
  affinity_chain_params params;
  rng gen(1);
  EXPECT_THROW(
      sample_affinity_tree_size(tree, all_sites_except(g, 0), 0, oracle, params, gen),
      std::invalid_argument);
  EXPECT_THROW(sample_affinity_tree_size(tree, {}, 3, oracle, params, gen),
               std::invalid_argument);
  params.measurements = 0;
  EXPECT_THROW(
      sample_affinity_tree_size(tree, all_sites_except(g, 0), 3, oracle, params, gen),
      std::invalid_argument);
}

}  // namespace
}  // namespace mcast
