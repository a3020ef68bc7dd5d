// Ablation (DESIGN.md §6.1) — SPT tie-breaking. BFS picks one of many
// shortest-path trees; the paper's quantities should not depend on which.
// Runs the Fig 1 measurement twice per network — lowest-id parents vs
// uniformly random equal-cost parents — and reports the worst relative
// difference of L(m)/ū across the grid.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "core/runner.hpp"
#include "lab/registry.hpp"
#include "sim/csv.hpp"
#include "topo/catalog.hpp"

namespace mcast::lab {

void register_ablation_tiebreak(registry& reg) {
  experiment e;
  e.id = "ablation_tiebreak";
  e.title = "Ablation: SPT equal-cost tie-breaking sensitivity";
  e.claim =
      "L(m)/ubar under lowest-id vs randomized equal-cost parent "
      "choice; the measurement must be insensitive (DESIGN.md 6.1)";
  e.params = {
      p_u64("budget", "node budget for the scaled network suite",
            300, 2000, 6000),
      p_u64("receiver_sets", "receiver sets per source", 6, 25, 60),
      p_u64("sources", "random sources per network", 4, 15, 40),
      p_u64("seed", "Monte-Carlo seed", 4242),
  };
  e.metric_groups = {"monte_carlo", "traversal"};
  e.run = [](context& ctx) {
    const node_id budget = static_cast<node_id>(ctx.u64("budget"));
    const auto suite = paper_networks();
    monte_carlo_params mc = ctx.monte_carlo();
    mc.receiver_sets = ctx.u64("receiver_sets");
    mc.sources = ctx.u64("sources");
    mc.seed = ctx.u64("seed");

    table_writer table(
        {"network", "max |Δratio|/ratio", "mean |Δratio|/ratio"});
    for (const auto& entry : suite) {
      const auto shared = ctx.topology(entry.name, 7, budget);
      const graph& g = *shared;
      const auto grid = default_group_grid(g.node_count() - 1, 12);

      monte_carlo_params det = mc;
      det.randomize_spt_parents = false;
      monte_carlo_params rnd = mc;
      rnd.randomize_spt_parents = true;
      const auto a = measure_distinct_receivers(g, grid, det);
      const auto b = measure_distinct_receivers(g, grid, rnd);

      double worst = 0.0, total = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double rel =
            std::abs(a[i].ratio_mean - b[i].ratio_mean) / a[i].ratio_mean;
        worst = std::max(worst, rel);
        total += rel;
      }
      table.add_row(
          {entry.name, table_writer::num(worst, 3),
           table_writer::num(total / static_cast<double>(a.size()), 3)});
      std::ostringstream line;
      line << "max_rel_diff=" << worst;
      ctx.fit("AblTiebreak/" + entry.name, line.str());
    }
    ctx.table(table);
    ctx.line("");
    ctx.line(
        "expected: differences at the Monte-Carlo-noise level "
        "(a few percent), confirming the measurement does not hinge "
        "on the BFS parent rule.");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
