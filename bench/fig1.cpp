// Figure 1 — Chuang-Sirbu scaling: ln(L(m)/ū) against ln m per network,
// next to the m^0.8 reference line.
//   suite=generated — Fig 1(a): r100, ts1000, ts1008, ti5000
//   suite=real      — Fig 1(b): ARPA, MBone, Internet, AS (DESIGN.md §3)
//   suite=all       — both panels in one run (the default)
// One experiment with a `suite` parameter replaces the old fig1_generated /
// fig1_real wrapper-binary pair.
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "experiments.hpp"

#include "core/runner.hpp"
#include "core/scaling_law.hpp"
#include "lab/registry.hpp"
#include "topo/catalog.hpp"

namespace mcast::lab {

namespace {

// Emits the panel's series and appends its fit lines to `fits`; the fit
// block goes after the reference series — the historical layout the
// goldens and plotting scripts expect.
void run_panel(context& ctx, const std::string& panel_id,
               const std::vector<network_entry>& suite,
               std::vector<std::pair<std::string, std::string>>& fits) {
  const node_id budget = static_cast<node_id>(ctx.u64("budget"));
  // budget >= 30000 keeps the native entries (topology cache key 0).
  const node_id scale_budget = budget < 30000 ? budget : 0;
  monte_carlo_params mc = ctx.monte_carlo();
  mc.receiver_sets = ctx.u64("receiver_sets");  // paper: N_rcvr = 100
  mc.sources = ctx.u64("sources");              // paper: N_source = 100
  mc.seed = ctx.u64("seed");
  const std::size_t grid_points = ctx.u64("grid_points");

  for (const auto& entry : suite) {
    const auto shared = ctx.topology(entry.name, 7, scale_budget);
    const graph& g = *shared;
    const std::uint64_t sites = g.node_count() - 1;
    const auto grid = default_group_grid(sites, grid_points);
    const auto rows = measure_distinct_receivers(g, grid, mc);

    std::vector<double> x, y;
    for (const auto& p : rows) {
      x.push_back(static_cast<double>(p.group_size));
      y.push_back(p.ratio_mean);
    }
    ctx.series(entry.name + "  (L(m)/ubar vs m)", x, y);

    const double lo = std::max(2.0, 2e-3 * static_cast<double>(sites));
    const double hi = 0.5 * static_cast<double>(sites);
    const scaling_law law = scaling_law::fit_to(rows, lo, hi);
    std::ostringstream line;
    line << "exponent=" << law.exponent() << " amplitude=" << law.amplitude()
         << " R2=" << law.r_squared() << " (paper: ~0.8)";
    fits.emplace_back(panel_id + "/" + entry.name, line.str());
  }
}

}  // namespace

void register_fig1(registry& reg) {
  experiment e;
  e.id = "fig1";
  e.title = "Fig 1: ln(L(m)/ubar) vs ln m on the eight-network suite";
  e.claim =
      "ln(L(m)/ubar) vs ln m compared to the line m^0.8 "
      "(Chuang-Sirbu scaling law, paper Fig 1)";
  e.params = {
      p_text("suite", "which panel: generated (Fig 1a), real (Fig 1b), all",
             "all"),
      p_u64("budget",
            "node budget; suites below 30000 are scaled-down versions",
            400, 30000, 60000),
      p_u64("receiver_sets", "receiver sets per source (paper N_rcvr)",
            5, 40, 100),
      p_u64("sources", "random sources per network (paper N_source)",
            4, 20, 100),
      p_u64("seed", "Monte-Carlo seed", 1999),
      p_u64("grid_points", "group sizes on the log grid", 10, 22, 30),
  };
  e.metric_groups = {"monte_carlo", "traversal"};
  e.run = [](context& ctx) {
    const std::string& suite = ctx.text("suite");
    if (suite != "generated" && suite != "real" && suite != "all") {
      throw std::invalid_argument(
          "fig1: suite must be generated, real or all (got '" + suite + "')");
    }
    std::vector<std::pair<std::string, std::string>> fits;
    if (suite == "generated" || suite == "all") {
      run_panel(ctx, "Fig 1(a)", generated_networks(), fits);
    }
    if (suite == "real" || suite == "all") {
      run_panel(ctx, "Fig 1(b)", real_networks(), fits);
    }

    // The m^0.8 reference line over the widest grid used.
    std::vector<double> rx, ry;
    for (double m = 1.0; m <= 1e5; m *= 3.0) {
      rx.push_back(m);
      ry.push_back(std::pow(m, 0.8));
    }
    ctx.series("reference m^0.8", rx, ry);
    for (const auto& [label, text] : fits) ctx.fit(label, text);
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
