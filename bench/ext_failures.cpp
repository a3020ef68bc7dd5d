// Extension — does the Chuang-Sirbu law survive failures?
//
// The provisioning story built on L(m) ~ m^0.8 only matters if the
// exponent is stable on the network a provider actually has: one with
// failed links and dead routers. This experiment measures L(m) and its
// fitted exponent on degraded views of the paper's topology catalog:
//   * uniform random link failure, p in {0, 0.01, 0.05, 0.1};
//   * targeted highest-degree node failure (top-f hubs);
// and then runs the session-level simulator against a scheduled link
// failure/recovery trace to report the degraded-mode service metrics
// (repairs, churn, disconnections, reachable fraction).
//
// Fully deterministic: a fixed `seed` parameter produces byte-identical
// output for any thread count (the Monte-Carlo runner is thread-count
// invariant and failure injection is seeded).
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "experiments.hpp"

#include "core/runner.hpp"
#include "core/scaling_law.hpp"
#include "fault/degraded.hpp"
#include "fault/failure_model.hpp"
#include "lab/registry.hpp"
#include "session/simulator.hpp"
#include "sim/csv.hpp"
#include "topo/catalog.hpp"
#include "topo/transit_stub.hpp"

namespace mcast::lab {
namespace {

// Fits the law to the usable window of a degraded measurement; returns
// false when the degraded network left too few rows to fit.
bool fit_degraded(const std::vector<scaling_point>& rows, scaling_law& out) {
  std::vector<scaling_point> usable;
  for (const scaling_point& p : rows) {
    if (p.samples > 0 && p.group_size >= 2 && p.group_size <= 500) {
      usable.push_back(p);
    }
  }
  if (usable.size() < 3) return false;
  out = scaling_law::fit_to(usable, 2.0, 500.0);
  return true;
}

}  // namespace

void register_ext_failures(registry& reg) {
  experiment e;
  e.id = "ext_failures";
  e.title = "Extension: failure robustness";
  e.claim =
      "stability of the fitted L(m) exponent under random link "
      "failure and targeted hub failure, plus degraded-mode "
      "session metrics (repair, churn, reachability)";
  e.params = {
      p_u64("seed", "master seed (topology, failures, sessions)", 1999),
      p_u64("budget", "node budget for the topology catalog", 250, 1500, 6000),
      p_u64("receiver_sets", "receiver sets per source", 4, 10, 30),
      p_u64("sources", "random sources per scenario", 6, 18, 48),
      p_u64("grid_points", "group-size grid points", 8, 14, 20),
      p_real("horizon", "session-trace time horizon", 150.0, 600.0, 2400.0),
  };
  e.metric_groups = {"monte_carlo", "traversal", "repair", "session"};
  e.run = [](context& ctx) {
    const std::uint64_t seed = ctx.u64("seed");
    ctx.line("# seed: " + std::to_string(seed));
    ctx.line("");

    const node_id budget = static_cast<node_id>(ctx.u64("budget"));
    const auto suite = paper_networks();
    monte_carlo_params mc = ctx.monte_carlo();
    mc.receiver_sets = ctx.u64("receiver_sets");
    mc.sources = ctx.u64("sources");
    mc.seed = seed;
    const std::size_t grid_points = ctx.u64("grid_points");

    const std::vector<double> p_values = {0.0, 0.01, 0.05, 0.1};

    table_writer random_table({"network", "p", "links failed", "exponent",
                               "R2", "drift vs p=0"});
    double worst_random_drift = 0.0;
    table_writer targeted_table(
        {"network", "hubs failed", "exponent", "R2", "drift vs intact"});
    double worst_targeted_drift = 0.0;
    std::size_t targeted_breaks = 0;  // hub scenarios that broke the fit

    for (const auto& entry : suite) {
      const auto shared = ctx.topology(entry.name, seed, budget);
      const graph& g = *shared;
      if (g.node_count() < 32) continue;
      const auto grid = default_group_grid(g.node_count() - 1, grid_points);

      double baseline = 0.0;
      for (std::size_t pi = 0; pi < p_values.size(); ++pi) {
        const double p = p_values[pi];
        degraded_view view(g);
        const failure_set scenario =
            random_link_failures(g, p, seed + 0x100 * (pi + 1));
        view.apply(scenario);
        const auto rows = measure_distinct_receivers(view, grid, mc);
        scaling_law law;
        if (!fit_degraded(rows, law)) {
          random_table.add_row({g.name(), table_writer::num(p, 3),
                                std::to_string(view.failed_link_count()),
                                "n/a", "n/a", "n/a"});
          continue;
        }
        if (pi == 0) baseline = law.exponent();
        const double drift = law.exponent() - baseline;
        worst_random_drift = std::max(worst_random_drift, std::abs(drift));
        random_table.add_row(
            {g.name(), table_writer::num(p, 3),
             std::to_string(view.failed_link_count()),
             table_writer::num(law.exponent(), 4),
             table_writer::num(law.r_squared(), 4),
             table_writer::num(drift, 3)});
      }

      const std::size_t hub_steps[] = {
          1, 2, std::max<std::size_t>(3, g.node_count() / 50)};
      for (std::size_t f : hub_steps) {
        if (f >= g.node_count()) continue;
        degraded_view view(g);
        view.apply(targeted_hub_failures(g, f));
        const auto rows = measure_distinct_receivers(view, grid, mc);
        scaling_law law;
        if (!fit_degraded(rows, law)) {
          ++targeted_breaks;
          targeted_table.add_row(
              {g.name(), std::to_string(f), "n/a", "n/a", "shattered"});
          continue;
        }
        const double drift = law.exponent() - baseline;
        worst_targeted_drift = std::max(worst_targeted_drift, std::abs(drift));
        targeted_table.add_row({g.name(), std::to_string(f),
                                table_writer::num(law.exponent(), 4),
                                table_writer::num(law.r_squared(), 4),
                                table_writer::num(drift, 3)});
      }
    }

    ctx.line("-- random link failure --");
    ctx.table(random_table);
    ctx.line("");
    ctx.line("-- targeted hub failure --");
    ctx.table(targeted_table);

    // Degraded-mode service metrics: sessions under a failure/recovery trace.
    const graph gs = make_transit_stub(ts1000_params(), 6);
    const double horizon = ctx.real("horizon");
    failure_trace_params trace_params;
    trace_params.horizon = horizon;
    trace_params.mean_repair_time = 15.0;
    // Aim for a few dozen failures over the run regardless of edge count.
    trace_params.link_failure_rate =
        40.0 / (static_cast<double>(gs.edge_count()) * horizon);
    const auto trace = make_failure_trace(gs, trace_params, seed ^ 0xfa17);

    session_workload w;
    w.session_arrival_rate = 0.25;
    w.session_lifetime_mean = 40.0;
    w.member_join_rate = 1.0;
    w.member_lifetime_mean = 12.0;
    w.max_concurrent_sessions = 512;
    const session_metrics healthy =
        simulate_sessions(gs, w, horizon, horizon / 5.0, seed);
    const session_metrics degraded =
        simulate_sessions(gs, w, trace, horizon, horizon / 5.0, seed);

    ctx.line("");
    ctx.line("-- sessions on ts1000 under a link failure/recovery trace --");
    table_writer session_table({"run", "avg links", "reach frac", "repairs",
                                "links churned", "disconnected",
                                "reconnected"});
    session_table.add_row(
        {"healthy", table_writer::num(healthy.time_avg_links, 5),
         table_writer::num(healthy.time_avg_reachable_fraction, 5),
         std::to_string(healthy.repairs),
         std::to_string(healthy.repair_links_churned),
         std::to_string(healthy.receivers_disconnected),
         std::to_string(healthy.receivers_reconnected)});
    session_table.add_row(
        {"degraded", table_writer::num(degraded.time_avg_links, 5),
         table_writer::num(degraded.time_avg_reachable_fraction, 5),
         std::to_string(degraded.repairs),
         std::to_string(degraded.repair_links_churned),
         std::to_string(degraded.receivers_disconnected),
         std::to_string(degraded.receivers_reconnected)});
    ctx.table(session_table);

    std::ostringstream line;
    line << "worst_random_drift=" << worst_random_drift
         << " worst_targeted_drift=" << worst_targeted_drift
         << " targeted_shattered=" << targeted_breaks
         << " degraded_reach_frac=" << degraded.time_avg_reachable_fraction;
    ctx.fit("ExtFailures", line.str());
    ctx.line("");
    ctx.line(
        "finding: uniform random link failure up to p=0.1 moves the "
        "fitted Chuang-Sirbu exponent only slightly (the law is "
        "provisioning-grade on the surviving component), while "
        "targeted hub failure drags the exponent and can shatter the "
        "fit entirely; under a live failure/recovery trace sessions "
        "repair onto degraded shortest paths and keep serving the "
        "reachable fraction reported above.");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
