// bfs_batch, the 64-source bit-parallel BFS: differential against the
// one-source bfs_distances on every (source, node) pair, the batch-size
// edge cases, and the all-pairs metrics built on it (average path length,
// diameter) against a naive per-source reference, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/metrics.hpp"
#include "topo/power_law.hpp"
#include "topo/regular.hpp"
#include "topo/waxman.hpp"

namespace mcast {
namespace {

// Three components of different shapes (a path, a triangle, a star) plus
// one isolated node, with the components' ids interleaved.
graph three_components_and_isolated() {
  graph_builder b(12);
  b.set_name("split");
  b.add_edge(0, 3);  // path 0-3-6-9
  b.add_edge(3, 6);
  b.add_edge(6, 9);
  b.add_edge(1, 4);  // triangle 1-4-7
  b.add_edge(4, 7);
  b.add_edge(7, 1);
  b.add_edge(2, 5);  // star centred on 2
  b.add_edge(2, 8);
  b.add_edge(2, 10);
  return b.build();  // node 11 is isolated
}

graph waxman_graph() {
  waxman_params p;
  p.nodes = 150;
  p.alpha = 0.15;
  p.beta = 0.1;
  return make_waxman(p, 5);
}

graph ba_graph() {
  barabasi_albert_params p;
  p.nodes = 300;
  return make_barabasi_albert(p, 5);
}

std::vector<graph> test_graphs() {
  return {make_path(130),  make_ring(100),   make_grid(7, 9),
          waxman_graph(),  ba_graph(),       three_components_and_isolated()};
}

// Runs bfs_batch over `sources` and returns dist[i][v] for source index i,
// failing the test if any (source, node) pair is reported twice or the
// levels are not visited in ascending order.
std::vector<std::vector<hop_count>> batch_distances(const graph& g,
                                                    const std::vector<node_id>& sources) {
  std::vector<std::vector<hop_count>> dist(
      sources.size(), std::vector<hop_count>(g.node_count(), unreachable));
  hop_count last = 0;
  bfs_batch(g, sources, [&](node_id v, hop_count d, std::uint64_t mask) {
    EXPECT_GE(d, last) << "levels out of order";
    last = d;
    EXPECT_NE(mask, 0u);
    for (; mask != 0; mask &= mask - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(mask));
      EXPECT_LT(i, sources.size());
      EXPECT_EQ(dist[i][v], unreachable)
          << "pair (" << sources[i] << ", " << v << ") reported twice";
      dist[i][v] = d;
    }
  });
  return dist;
}

TEST(bfs_batch, every_pair_matches_bfs_distances_for_each_batch_size) {
  for (const graph& g : test_graphs()) {
    std::vector<std::vector<hop_count>> want;
    for (node_id s = 0; s < g.node_count(); ++s) want.push_back(bfs_distances(g, s));
    for (std::size_t size : {1u, 63u, 64u}) {
      for (node_id first = 0; first < g.node_count(); first += size) {
        std::vector<node_id> sources;
        for (node_id s = first; s < g.node_count() && sources.size() < size; ++s) {
          sources.push_back(s);
        }
        const auto got = batch_distances(g, sources);
        for (std::size_t i = 0; i < sources.size(); ++i) {
          ASSERT_EQ(got[i], want[sources[i]])
              << g.name() << " batch size " << size << " source " << sources[i];
        }
      }
    }
  }
}

TEST(bfs_batch, sources_need_not_be_sorted_or_contiguous) {
  const graph g = ba_graph();
  std::vector<node_id> sources;
  for (node_id s = 0; s < 64; ++s) sources.push_back((s * 97 + 13) % g.node_count());
  const auto got = batch_distances(g, sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(got[i], bfs_distances(g, sources[i])) << "source " << sources[i];
  }
}

TEST(bfs_batch, duplicate_sources_each_own_a_bit) {
  const graph g = make_grid(7, 9);
  const std::vector<node_id> sources = {3, 3, 40, 3, 40, 62};
  const auto got = batch_distances(g, sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(got[i], bfs_distances(g, sources[i])) << "slot " << i;
  }
}

TEST(bfs_batch, empty_batch_visits_nothing) {
  std::size_t calls = 0;
  bfs_batch(make_ring(10), std::vector<node_id>{},
            [&calls](node_id, hop_count, std::uint64_t) { ++calls; });
  bfs_batch(graph{}, std::vector<node_id>{},
            [&calls](node_id, hop_count, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(bfs_batch, bad_batches_throw) {
  const graph g = make_ring(100);
  std::vector<node_id> too_many(65);
  for (node_id s = 0; s < 65; ++s) too_many[s] = s;
  const auto ignore = [](node_id, hop_count, std::uint64_t) {};
  EXPECT_THROW(bfs_batch(g, too_many, ignore), std::invalid_argument);
  EXPECT_THROW(bfs_batch(g, std::vector<node_id>{1, 100}, ignore), std::out_of_range);
}

// The per-source loops average_path_length_exact and diameter_exact ran
// before bfs_batch, kept here as the reference: a running double sum.
double reference_average(const graph& g) {
  if (g.node_count() < 2) return 0.0;
  double total = 0.0;
  std::size_t pairs = 0;
  for (node_id s = 0; s < g.node_count(); ++s) {
    for (hop_count d : bfs_distances(g, s)) {
      if (d != unreachable && d > 0) {
        total += d;
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

std::size_t reference_diameter(const graph& g) {
  std::size_t best = 0;
  for (node_id s = 0; s < g.node_count(); ++s) {
    for (hop_count d : bfs_distances(g, s)) {
      if (d != unreachable) best = std::max<std::size_t>(best, d);
    }
  }
  return best;
}

std::vector<graph> metric_graphs() {
  std::vector<graph> all = test_graphs();
  all.push_back(graph{});
  all.push_back(make_path(1));
  all.push_back(make_path(2));
  all.push_back(graph_builder(2).build());  // two nodes, no edge
  all.push_back(make_complete(65));          // 64 + 1: a batch of one
  return all;
}

TEST(bfs_batch_metrics, all_pairs_metrics_equal_the_per_source_reference) {
  for (const graph& g : metric_graphs()) {
    const std::string what = g.name() + " n=" + std::to_string(g.node_count());
    const double avg = reference_average(g);
    const std::size_t diam = reference_diameter(g);
    EXPECT_EQ(average_path_length_exact(g), avg) << what;
    EXPECT_EQ(diameter_exact(g), diam) << what;
    const table1_row row = summarize_network(g);
    EXPECT_EQ(row.avg_path_length, avg) << what;
    EXPECT_EQ(row.diameter, diam) << what;
  }
}

TEST(bfs_batch_metrics, disconnected_graph_counts_only_reachable_pairs) {
  // Components: path of 4 (12 ordered pairs, sum 20), triangle (6, sum 6),
  // star of 4 (12, sum 18), isolated node (none): 44 / 30.
  const graph g = three_components_and_isolated();
  EXPECT_EQ(average_path_length_exact(g), 44.0 / 30.0);
  EXPECT_EQ(diameter_exact(g), 3u);
}

}  // namespace
}  // namespace mcast
