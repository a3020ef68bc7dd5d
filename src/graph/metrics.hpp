// Whole-graph structural metrics: the columns of the paper's Table 1
// (nodes, links, average degree) plus the path statistics (average unicast
// path length ū, diameter) used to normalize every figure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace mcast {

/// Degree distribution summary.
struct degree_stats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  std::vector<std::size_t> histogram;  // histogram[d] = #nodes with degree d
};

/// Computes degree statistics for `g` (all zeros for an empty graph).
degree_stats compute_degree_stats(const graph& g);

/// Exact average shortest-path length over all ordered reachable pairs
/// (excluding v->v). One bit-parallel BFS per 64 sources (bfs_batch):
/// O(⌈V/64⌉·D·(V+E)), D the diameter.
double average_path_length_exact(const graph& g);

/// Monte-Carlo estimate of the average shortest-path length: BFS from
/// `samples` sources drawn by `pick(node_count)` (values in [0, n)).
/// Matches the paper's practice of estimating ū by sampling sources.
template <typename pick_fn>
double average_path_length_sampled(const graph& g, std::size_t samples, pick_fn&& pick);

/// Exact diameter (max finite pairwise distance). O(⌈V/64⌉·D·(V+E)).
std::size_t diameter_exact(const graph& g);

/// One row of Table 1.
struct table1_row {
  std::string name;
  std::size_t nodes = 0;
  std::size_t links = 0;
  double avg_degree = 0.0;
  double avg_path_length = 0.0;  // ū, sampled for large graphs
  std::size_t diameter = 0;      // sampled lower bound for large graphs
};

/// Computes a Table 1 row. For graphs over `exact_threshold` nodes the path
/// metrics are estimated from `samples` BFS sources chosen deterministically
/// from `seed`.
table1_row summarize_network(const graph& g, std::size_t exact_threshold = 4000,
                             std::size_t samples = 64, std::uint64_t seed = 1);

// --- template implementation ---

template <typename pick_fn>
double average_path_length_sampled(const graph& g, std::size_t samples, pick_fn&& pick) {
  if (g.node_count() < 2 || samples == 0) return 0.0;
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const node_id s = static_cast<node_id>(pick(g.node_count()));
    for (hop_count d : bfs_distances(g, s)) {
      if (d != unreachable && d > 0) {
        total += d;
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

}  // namespace mcast
