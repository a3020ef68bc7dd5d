// Figure 6 — L̂(n)/(n·ū) versus ln n, measured by Monte-Carlo on the
// eight-network suite:
//   (a) generated topologies;   (b) real-style topologies.
// For networks with exponential reachability the curve is a straight line
// in ln n (the Eq 29 form); ti5000 / MBone / ARPA deviate. The FIT lines
// report the linearity (R²) that encodes the paper's dichotomy.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "core/runner.hpp"
#include "lab/registry.hpp"
#include "topo/catalog.hpp"

namespace mcast::lab {

void register_fig6(registry& reg) {
  experiment e;
  e.id = "fig6";
  e.title = "Fig 6: L-hat(n)/(n*ubar) vs ln n on the eight networks";
  e.claim =
      "L-hat(n)/(n*ubar) vs ln n for the eight networks; linear "
      "for exponential-T(r) topologies (paper Fig 6a/6b)";
  e.params = {
      p_u64("budget",
            "node budget; suites below 30000 are scaled-down versions",
            400, 30000, 60000),
      p_u64("receiver_sets", "receiver sets per source", 5, 30, 100),
      p_u64("sources", "random sources per network", 4, 15, 100),
      p_u64("seed", "Monte-Carlo seed", 66),
      p_u64("grid_points", "group sizes on the log grid", 8, 18, 26),
  };
  e.metric_groups = {"monte_carlo", "traversal"};
  e.run = [](context& ctx) {
    const node_id budget = static_cast<node_id>(ctx.u64("budget"));
    const node_id scale_budget = budget < 30000 ? budget : 0;
    const auto suite = paper_networks();
    monte_carlo_params mc = ctx.monte_carlo();
    mc.receiver_sets = ctx.u64("receiver_sets");
    mc.sources = ctx.u64("sources");
    mc.seed = ctx.u64("seed");
    const std::size_t grid_points = ctx.u64("grid_points");

    for (const auto& entry : suite) {
      const auto shared = ctx.topology(entry.name, 7, scale_budget);
      const graph& g = *shared;
      // n runs past the network size (with replacement), as in the paper.
      const std::uint64_t n_max = 4ULL * (g.node_count() - 1);
      const auto grid = default_group_grid(n_max, grid_points);
      const auto rows = measure_with_replacement(g, grid, mc);

      std::vector<double> xs, ys, fx, fy;
      for (const auto& p : rows) {
        const double lx = std::log(static_cast<double>(p.group_size));
        const double y = p.ratio_mean / static_cast<double>(p.group_size);
        xs.push_back(lx);
        ys.push_back(y);
        // The paper's linear regime is 5 < n < M; saturation bends everyone.
        if (p.group_size > 4 && p.group_size < g.node_count() - 1) {
          fx.push_back(lx);
          fy.push_back(y);
        }
      }
      ctx.series(entry.name + "  (L/(n*ubar) vs ln n)", xs, ys);

      const linear_fit lf = fit_linear(fx, fy);
      std::ostringstream fit;
      fit << "linearity_R2=" << lf.r_squared << " slope=" << lf.slope
          << (entry.kind == network_kind::generated ? " [generated]"
                                                    : " [real-style]");
      ctx.fit("Fig6/" + entry.name, fit.str());
    }
    ctx.line(
        "paper: r100/ts1000/ts1008/Internet/AS fit the predicted "
        "linear form; ti5000, MBone, ARPA less so (Section 4.2).");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
