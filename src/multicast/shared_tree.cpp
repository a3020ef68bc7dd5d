#include "multicast/shared_tree.hpp"

#include <algorithm>
#include <optional>

#include "analysis/stats.hpp"
#include "common/contract.hpp"
#include "graph/components.hpp"
#include "graph/workspace.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"

namespace mcast {

node_id choose_core(const graph& g, core_strategy strategy, rng& gen,
                    std::size_t probes) {
  expects(!g.empty(), "choose_core: graph is empty");
  switch (strategy) {
    case core_strategy::random:
      return static_cast<node_id>(gen.below(g.node_count()));
    case core_strategy::degree_center: {
      node_id best = 0;
      for (node_id v = 1; v < g.node_count(); ++v) {
        if (g.degree(v) > g.degree(best)) best = v;
      }
      return best;
    }
    case core_strategy::path_center: {
      expects(probes >= 1, "choose_core: path_center needs >= 1 probe");
      node_id best = invalid_node;
      std::uint64_t best_ecc = ~0ULL;
      for (std::size_t i = 0; i < probes; ++i) {
        const node_id candidate = static_cast<node_id>(gen.below(g.node_count()));
        const bfs_tree t = bfs_from(g, candidate);
        const std::uint64_t ecc = t.eccentricity();
        if (ecc < best_ecc) {
          best_ecc = ecc;
          best = candidate;
        }
      }
      return best;
    }
  }
  throw std::invalid_argument("mcast: choose_core: unknown strategy");
}

std::size_t shared_tree_core_size(const source_tree& core_tree,
                                  std::span<const node_id> receivers) {
  // Paths receiver->core in an undirected graph are the reversed
  // core->receiver shortest paths, so the union is exactly the delivery
  // tree rooted at the core.
  return delivery_tree_size(core_tree, receivers);
}

std::size_t shared_tree_size(const source_tree& core_tree, node_id source,
                             std::span<const node_id> receivers) {
  expects_in_range(source < core_tree.node_count(),
                   "shared_tree_size: source out of range");
  expects(core_tree.distance(source) != unreachable,
          "shared_tree_size: source unreachable from core");
  return shared_tree_core_size(core_tree, receivers) + core_tree.distance(source);
}

std::vector<tree_comparison> compare_source_vs_shared(
    const graph& g, const std::vector<std::uint64_t>& group_sizes,
    core_strategy strategy, std::size_t receiver_sets, std::size_t sources,
    std::uint64_t seed) {
  expects(g.node_count() >= 2, "compare_source_vs_shared: graph too small");
  expects(is_connected(g), "compare_source_vs_shared: graph must be connected");
  expects(receiver_sets >= 1 && sources >= 1,
          "compare_source_vs_shared: need >= 1 receiver set and source");
  const std::uint64_t sites = g.node_count() - 1;
  for (std::uint64_t m : group_sizes) {
    expects(m >= 1 && m <= sites,
            "compare_source_vs_shared: group size out of range");
  }

  rng gen(seed);
  const node_id core = choose_core(g, strategy, gen);
  traversal_workspace ws;
  const source_tree core_tree(g, core, ws);
  delivery_tree_builder core_builder(core_tree);

  std::vector<running_stats> src_stats(group_sizes.size());
  std::vector<running_stats> shared_stats(group_sizes.size());

  std::vector<node_id> universe;
  std::vector<node_id> receivers;
  std::optional<delivery_tree_builder> src_builder;
  for (std::size_t s = 0; s < sources; ++s) {
    const node_id source = static_cast<node_id>(gen.below(g.node_count()));
    const source_tree spt(g, source, ws);
    universe.clear();
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (v != source) universe.push_back(v);
    }
    if (src_builder) {
      src_builder->rebind(spt);
    } else {
      src_builder.emplace(spt);
    }

    for (std::size_t gi = 0; gi < group_sizes.size(); ++gi) {
      for (std::size_t rep = 0; rep < receiver_sets; ++rep) {
        sample_distinct_into(universe, group_sizes[gi], gen, receivers);
        src_builder->reset();
        core_builder.reset();
        for (node_id v : receivers) {
          src_builder->add_receiver(v);
          core_builder.add_receiver(v);
        }
        src_stats[gi].add(static_cast<double>(src_builder->link_count()));
        shared_stats[gi].add(static_cast<double>(core_builder.link_count() +
                                                 core_tree.distance(source)));
      }
    }
  }

  std::vector<tree_comparison> out(group_sizes.size());
  for (std::size_t gi = 0; gi < group_sizes.size(); ++gi) {
    out[gi].group_size = group_sizes[gi];
    out[gi].source_tree_links = src_stats[gi].mean();
    out[gi].shared_tree_links = shared_stats[gi].mean();
    out[gi].shared_over_source =
        out[gi].shared_tree_links / out[gi].source_tree_links;
  }
  return out;
}

}  // namespace mcast
