#include "topo/mbone.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace mcast {

graph make_mbone(const mbone_params& p, rng& gen) {
  expects(p.overlay_nodes >= 2, "make_mbone: overlay_nodes must be >= 2");
  expects(p.overlay_nodes <= p.substrate.nodes,
          "make_mbone: overlay_nodes must not exceed substrate nodes");
  expects(p.extra_tunnel_fraction >= 0.0,
          "make_mbone: extra_tunnel_fraction must be non-negative");

  const graph substrate = make_waxman(p.substrate, gen);

  // Choose overlay routers: a uniform sample without replacement
  // (partial Fisher-Yates over the node ids).
  std::vector<node_id> ids(substrate.node_count());
  for (node_id v = 0; v < substrate.node_count(); ++v) ids[v] = v;
  for (node_id i = 0; i < p.overlay_nodes; ++i) {
    const std::size_t j = i + gen.below(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(p.overlay_nodes);

  // Hop distances between overlay routers: one bit-parallel BFS over the
  // substrate per 64 overlay routers, written through an overlay-index map.
  const std::size_t n = p.overlay_nodes;
  std::vector<std::uint32_t> overlay_index(substrate.node_count(), p.overlay_nodes);
  for (std::size_t i = 0; i < n; ++i) overlay_index[ids[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::uint16_t> dist(n * n, 0);
  for (std::size_t first = 0; first < n; first += 64) {
    const std::size_t count = std::min<std::size_t>(64, n - first);
    std::size_t reported = 0;
    bfs_batch(substrate, std::span<const node_id>(ids).subspan(first, count),
              [&](node_id v, hop_count d, std::uint64_t mask) {
                const std::size_t j = overlay_index[v];
                if (j == n) return;
                reported += static_cast<std::size_t>(std::popcount(mask));
                for (; mask != 0; mask &= mask - 1) {
                  const std::size_t i = first + static_cast<std::size_t>(std::countr_zero(mask));
                  dist[i * n + j] = static_cast<std::uint16_t>(d);
                }
              });
    MCAST_ASSERT(reported == count * n);  // the substrate is connected
  }

  // Tunnel MST over the hop-distance metric (Prim). Chain-heavy by nature.
  graph_builder b(p.overlay_nodes);
  b.set_name("MBone" + std::to_string(p.overlay_nodes));
  std::vector<bool> in_tree(n, false);
  std::vector<std::uint32_t> best(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<std::size_t> best_from(n, 0);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best[j] = dist[j];  // row 0
    best_from[j] = 0;
  }
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t pick = n;
    std::uint32_t pick_d = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best[j] < pick_d) {
        pick_d = best[j];
        pick = j;
      }
    }
    MCAST_ASSERT(pick < n);
    in_tree[pick] = true;
    b.add_edge(static_cast<node_id>(pick), static_cast<node_id>(best_from[pick]));
    const std::uint16_t* row = &dist[pick * n];
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && row[j] < best[j]) {
        best[j] = row[j];
        best_from[j] = pick;
      }
    }
  }

  // Redundant tunnels between random overlay pairs (prefer short ones:
  // rejection-sample against distance so tunnels stay regional, as real
  // MBone redundancy did).
  const std::size_t extra = static_cast<std::size_t>(
      std::llround(p.extra_tunnel_fraction * static_cast<double>(n)));
  std::uint32_t max_d = 1;
  for (std::uint16_t d : dist) max_d = std::max<std::uint32_t>(max_d, d);
  for (std::size_t e = 0; e < extra; ++e) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t i = gen.below(n);
      const std::size_t j = gen.below(n);
      if (i == j) continue;
      const double closeness =
          1.0 - static_cast<double>(dist[i * n + j]) / static_cast<double>(max_d);
      if (gen.chance(closeness * closeness)) {
        b.add_edge(static_cast<node_id>(i), static_cast<node_id>(j));
        break;
      }
    }
  }
  return b.build();
}

graph make_mbone(const mbone_params& params, std::uint64_t seed) {
  rng gen(seed);
  return make_mbone(params, gen);
}

}  // namespace mcast
