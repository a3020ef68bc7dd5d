#include "multicast/repair.hpp"

#include <chrono>

#include "common/contract.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcast {

namespace {

// Repair is coarse enough (one SPT + one tree rebuild) to afford a span
// and a latency histogram per call; both vanish under MCAST_OBS_DISABLED.
struct repair_probe {
#if !defined(MCAST_OBS_DISABLED)
  obs::span span{"repair_delivery_tree"};
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  ~repair_probe() {
    obs::add(obs::counter::repair_trees);
    obs::record(
        obs::histogram::repair_latency_ns,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
#endif
};

// Counts the symmetric difference of two sorted link lists.
void diff_links(const std::vector<edge>& old_links,
                const std::vector<edge>& new_links, repair_report& report) {
  const auto less = [](const edge& x, const edge& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  };
  auto o = old_links.begin();
  auto n = new_links.begin();
  while (o != old_links.end() || n != new_links.end()) {
    if (n == new_links.end() || (o != old_links.end() && less(*o, *n))) {
      ++report.links_removed;
      ++o;
    } else if (o == old_links.end() || less(*n, *o)) {
      ++report.links_added;
      ++n;
    } else {
      ++o;
      ++n;
    }
  }
}

}  // namespace

repaired_tree repair_delivery_tree(const dynamic_delivery_tree& broken,
                                   const degraded_view& view) {
  expects(broken.base().node_count() == view.base().node_count(),
          "repair_delivery_tree: view overlays a different topology");
  [[maybe_unused]] const repair_probe probe;
  const source_tree& old_routing = broken.base();
  const node_id src = old_routing.source();

  repaired_tree out;
  out.routing =
      std::make_shared<const source_tree>(view.base(), bfs_from(view, src));
  out.delivery = std::make_unique<dynamic_delivery_tree>(*out.routing);
  out.report.source_lost = !view.node_alive(src);

  for (node_id v : broken.receiver_sites()) {
    const std::uint32_t instances = broken.receivers_at(v);
    if (out.routing->distance(v) == unreachable) {
      out.report.partitioned.push_back(v);
      out.report.receivers_lost += instances;
      continue;
    }
    // The old path survives iff every hop v -> source is still usable
    // (usable() also checks both endpoint nodes, so the walk covers v and
    // the source themselves).
    bool intact = view.node_alive(src);
    for (node_id w = v; intact && w != src; w = old_routing.parent(w)) {
      intact = view.usable(w, old_routing.parent(w));
    }
    for (std::uint32_t i = 0; i < instances; ++i) out.delivery->join(v);
    (intact ? out.report.unaffected : out.report.rerouted).push_back(v);
  }

  diff_links(broken.links(), out.delivery->links(), out.report);
  obs::add(obs::counter::repair_unaffected, out.report.unaffected.size());
  obs::add(obs::counter::repair_rerouted, out.report.rerouted.size());
  obs::add(obs::counter::repair_partitioned, out.report.partitioned.size());
  return out;
}

}  // namespace mcast
