// Monte-Carlo measurement engine — the experimental procedure of Section 2.
//
// For each group size, the paper draws N_source random sources (with
// replacement); for each source, N_rcvr random receiver sets; for each
// sample it computes the delivery-tree size L and the sample-average
// unicast path length ū, then averages the ratio L/ū over all
// N_source × N_rcvr samples. Two receiver models:
//
//   measure_distinct_receivers    — m distinct sites (L(m); Figs 1)
//   measure_with_replacement      — n draws with replacement (L̂(n); Fig 6)
//
// Everything is deterministic given params.seed.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stats.hpp"
#include "fault/degraded.hpp"
#include "graph/graph.hpp"

namespace mcast {

struct monte_carlo_params {
  std::size_t receiver_sets = 100;  ///< the paper's N_rcvr
  std::size_t sources = 100;        ///< the paper's N_source
  std::uint64_t seed = 1999;
  /// When set, each source's shortest-path tree breaks equal-cost ties
  /// uniformly at random instead of by lowest node id — the ablation of
  /// DESIGN.md §6.1 (results should be insensitive to the choice).
  bool randomize_spt_parents = false;
  /// Worker threads. Every source gets its own RNG stream derived from
  /// (seed, source index), so results are bit-identical for any thread
  /// count — 1 and N produce the same numbers. 0 means "hardware
  /// concurrency".
  std::size_t threads = 1;
};

/// One group-size row of a measurement.
struct scaling_point {
  std::uint64_t group_size = 0;   ///< m (distinct) or n (with replacement)
  double tree_links_mean = 0.0;   ///< ⟨L⟩
  double tree_links_stderr = 0.0;
  double unicast_mean = 0.0;      ///< ⟨ū_sample⟩ (per-receiver path length)
  double ratio_mean = 0.0;        ///< ⟨L / ū_sample⟩ — the Fig 1 y-value
  double ratio_stderr = 0.0;
  double distinct_mean = 0.0;     ///< ⟨#distinct sites⟩ (== m for distinct model)
  std::uint64_t samples = 0;      ///< samples behind the row (0 => all means are 0)
};

/// L(m) measurement over `group_sizes` (each must satisfy
/// 1 <= m <= node_count - 1). The graph must be connected.
std::vector<scaling_point> measure_distinct_receivers(
    const graph& g, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params);

/// L̂(n) measurement over `group_sizes` (each n >= 1; receivers drawn with
/// replacement from all non-source sites). The graph must be connected.
std::vector<scaling_point> measure_with_replacement(
    const graph& g, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params);

/// L(m) on a degraded topology (fault/degraded.hpp). Sources are drawn
/// among alive nodes; each source's candidate receivers are the sites its
/// degraded BFS still reaches, so trees never cross failed elements. Group
/// sizes a source cannot satisfy (m exceeds its reachable universe) are
/// skipped for that source — scaling_point::samples records how many
/// samples each row kept (rows with 0 samples have all-zero means). On a
/// pristine view this matches measure_distinct_receivers(graph, ...)
/// exactly. Thread-count invariant, like the pristine measurement; the
/// randomize_spt_parents ablation is not supported here.
std::vector<scaling_point> measure_distinct_receivers(
    const degraded_view& view, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params);

/// Default group-size grid for a network of `sites` candidate receivers:
/// log-spaced from 1 to `sites`, the x-axis the paper uses everywhere.
std::vector<std::uint64_t> default_group_grid(std::uint64_t sites,
                                              std::size_t points = 24);

}  // namespace mcast
