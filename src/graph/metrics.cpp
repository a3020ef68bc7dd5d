#include "graph/metrics.hpp"

#include <algorithm>
#include <bit>

#include "common/contract.hpp"

namespace mcast {

degree_stats compute_degree_stats(const graph& g) {
  degree_stats s;
  if (g.empty()) return s;
  s.min = g.degree(0);
  for (node_id v = 0; v < g.node_count(); ++v) {
    const std::size_t d = g.degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    if (s.histogram.size() <= d) s.histogram.resize(d + 1, 0);
    ++s.histogram[d];
  }
  s.mean = 2.0 * static_cast<double>(g.edge_count()) /
           static_cast<double>(g.node_count());
  return s;
}

namespace {

// Sums of every finite distance d > 0 over all ordered pairs, plus the
// largest one. The integer sums stay far below 2^53, so converting them
// once gives the same double as adding each distance to a double.
struct all_pairs_stats {
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  std::size_t diameter = 0;
};

all_pairs_stats all_pairs(const graph& g) {
  all_pairs_stats s;
  std::vector<node_id> batch;
  for (node_id first = 0; first < g.node_count(); first += 64) {
    batch.clear();
    for (node_id v = first; v < g.node_count() && batch.size() < 64; ++v) {
      batch.push_back(v);
    }
    bfs_batch(g, batch, [&s](node_id, hop_count d, std::uint64_t mask) {
      if (d == 0) return;
      const auto k = static_cast<std::uint64_t>(std::popcount(mask));
      s.total += k * d;
      s.pairs += k;
      s.diameter = std::max<std::size_t>(s.diameter, d);
    });
  }
  return s;
}

double mean_path_length(const all_pairs_stats& s) {
  return s.pairs == 0 ? 0.0
                      : static_cast<double>(s.total) / static_cast<double>(s.pairs);
}

}  // namespace

double average_path_length_exact(const graph& g) {
  return mean_path_length(all_pairs(g));
}

std::size_t diameter_exact(const graph& g) { return all_pairs(g).diameter; }

table1_row summarize_network(const graph& g, std::size_t exact_threshold,
                             std::size_t samples, std::uint64_t seed) {
  table1_row row;
  row.name = g.name();
  row.nodes = g.node_count();
  row.links = g.edge_count();
  row.avg_degree = g.empty() ? 0.0
                             : 2.0 * static_cast<double>(g.edge_count()) /
                                   static_cast<double>(g.node_count());
  if (g.node_count() < 2) return row;

  if (g.node_count() <= exact_threshold) {
    const all_pairs_stats s = all_pairs(g);
    row.avg_path_length = mean_path_length(s);
    row.diameter = s.diameter;
  } else {
    // splitmix64 stream keeps this header-light and deterministic.
    std::uint64_t state = seed;
    auto pick = [&state](std::size_t n) {
      state += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      return z % n;
    };
    double total = 0.0;
    std::size_t pairs = 0;
    std::size_t ecc_max = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      const node_id s = static_cast<node_id>(pick(g.node_count()));
      for (hop_count d : bfs_distances(g, s)) {
        if (d != unreachable && d > 0) {
          total += d;
          ++pairs;
          ecc_max = std::max<std::size_t>(ecc_max, d);
        }
      }
    }
    row.avg_path_length = pairs ? total / static_cast<double>(pairs) : 0.0;
    row.diameter = ecc_max;  // lower bound from sampled eccentricities
  }
  return row;
}

}  // namespace mcast
