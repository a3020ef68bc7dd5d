// Ablation (DESIGN.md §6.4) — what drives the Fig 6 slope on transit-stub
// topologies? The paper is "a bit surprised" that ts1000 (deg 3.6) and
// ts1008 (deg 7.5) have such similar slopes, and attributes it to similar
// T(r) growth rather than raw degree. Sweep the stub-density knob at fixed
// structure and report avg degree, T(r) growth λ and the measured Fig 6
// slope side by side.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "analysis/reachability.hpp"
#include "core/runner.hpp"
#include "graph/metrics.hpp"
#include "lab/registry.hpp"
#include "sim/csv.hpp"
#include "topo/transit_stub.hpp"

namespace mcast::lab {

void register_ablation_ts_degree(registry& reg) {
  experiment e;
  e.id = "ablation_ts_degree";
  e.title = "Ablation: transit-stub degree vs the Fig 6 slope";
  e.claim =
      "avg degree vs T(r) growth vs measured L/(n*ubar) slope "
      "(paper: growth, not degree, sets the slope; Section 4.2)";
  e.params = {
      p_u64("receiver_sets", "receiver sets per source", 6, 25, 60),
      p_u64("sources", "random sources per topology", 4, 15, 40),
      p_u64("seed", "Monte-Carlo seed", 31337),
  };
  e.metric_groups = {"monte_carlo", "traversal"};
  e.run = [](context& ctx) {
    monte_carlo_params mc = ctx.monte_carlo();
    mc.receiver_sets = ctx.u64("receiver_sets");
    mc.sources = ctx.u64("sources");
    mc.seed = ctx.u64("seed");

    table_writer table({"stub p", "extra edges", "avg degree", "T(r) lambda",
                        "fig6 slope", "fig6 R2"});
    struct knob {
      double stub_p;
      double extras;
    };
    const knob knobs[] = {{0.1, 0.0}, {0.2, 100.0}, {0.4, 400.0},
                          {0.55, 800.0}, {0.8, 1600.0}};
    std::vector<double> degrees, slopes;
    for (const knob& kn : knobs) {
      transit_stub_params p = ts1000_params();
      p.stub_edge_prob = kn.stub_p;
      p.extra_stub_stub_edges = kn.extras;
      const graph g = make_transit_stub(p, 17);

      const double deg = compute_degree_stats(g).mean;
      rng rgen(5);
      const reachability_growth_fit growth =
          fit_reachability_growth(mean_reachability(g, 16, rgen));

      const auto grid = default_group_grid(4ULL * (g.node_count() - 1), 12);
      const auto rows = measure_with_replacement(g, grid, mc);
      std::vector<double> xs, ys;
      for (const auto& row : rows) {
        xs.push_back(std::log(static_cast<double>(row.group_size)));
        ys.push_back(row.ratio_mean / static_cast<double>(row.group_size));
      }
      const linear_fit lf = fit_linear(xs, ys);
      degrees.push_back(deg);
      slopes.push_back(lf.slope);

      table.add_row({table_writer::num(kn.stub_p, 3),
                     table_writer::num(kn.extras, 4),
                     table_writer::num(deg, 3),
                     table_writer::num(growth.lambda, 3),
                     table_writer::num(lf.slope, 3),
                     table_writer::num(lf.r_squared, 4)});
    }
    ctx.table(table);

    // How much does the slope move per unit of degree? Small = the paper's
    // observation that degree alone is not the driver.
    const linear_fit sensitivity = fit_linear(degrees, slopes);
    std::ostringstream line;
    line << "dslope/ddegree=" << sensitivity.slope
         << " (|small| reproduces the ts1000-vs-ts1008 similarity)";
    ctx.fit("AblTsDegree", line.str());
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
