// Extension — does the Chuang-Sirbu exponent survive churn? The paper
// (and every figure above) prices a group *frozen* at size m. A live
// group is a process: members join and leave, and the delivery tree
// grafts and prunes branches incrementally (group/group_manager.hpp).
// This experiment drives M/M/∞ Poisson churn at three lifetime tiers,
// sweeps the stationary mean size, and fits
//   time-averaged links  ~  A * (time-averaged members)^ε
// per tier against the static L(m) fit on the same topology. Finding:
// ε is a property of the path union, not of membership dynamics — the
// time-averaged tree obeys the same near-0.8 law at every churn speed.
#include <cmath>
#include <iterator>
#include <sstream>
#include <vector>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "core/runner.hpp"
#include "group/churn.hpp"
#include "group/group_manager.hpp"
#include "lab/registry.hpp"
#include "sim/csv.hpp"
#include "sim/rng.hpp"

namespace mcast::lab {

namespace {

struct churn_tier {
  const char* label;     ///< FIT label, no dots/slashes (expect-file keys)
  double mean_lifetime;  ///< exponential holding-time mean
};

constexpr churn_tier k_tiers[] = {
    {"ChurnFast", 2.0},
    {"ChurnMid", 8.0},
    {"ChurnSlow", 32.0},
};

struct churn_point {
  double target_members = 0.0;
  churn_metrics metrics;
};

}  // namespace

void register_ext_churn(registry& reg) {
  experiment e;
  e.id = "ext_churn";
  e.title = "Extension: the scaling law under membership churn";
  e.claim =
      "time-averaged incremental-tree size under Poisson join/leave "
      "churn obeys the same m^0.8 law as the static tree";
  e.params = {
      p_u64("receiver_sets", "receiver sets for the static reference", 6, 20,
            60),
      p_u64("sources", "sources for the static reference", 5, 15, 50),
      p_real("horizon", "measured churn span per point", 120.0, 600.0, 2400.0),
      p_real("warmup", "settle-in span excluded from averages", 24.0, 96.0,
             240.0),
      p_u64("max_members", "largest target mean group size (power of two)",
            32, 128, 256),
      p_u64("churn_seed", "base seed; each sweep point derives its own", 41),
  };
  e.metric_groups = {"monte_carlo", "traversal", "group"};
  e.run = [](context& ctx) {
    const auto g = ctx.topology("ts1000", 6);
    const node_id n = g->node_count();

    // Static reference: the frozen-group L(m) fit the paper reports, on
    // the same topology and fit window the churn tiers use below.
    monte_carlo_params mc = ctx.monte_carlo();
    mc.receiver_sets = ctx.u64("receiver_sets");
    mc.sources = ctx.u64("sources");
    const auto rows =
        measure_distinct_receivers(*g, default_group_grid(n - 1, 14), mc);
    const double x_lo = 2.0;
    const double x_hi = 0.5 * static_cast<double>(n);
    {
      std::vector<double> xs, ys;
      for (const scaling_point& row : rows) {
        xs.push_back(static_cast<double>(row.group_size));
        ys.push_back(row.tree_links_mean);
      }
      const power_law_fit f = fit_power_law_windowed(xs, ys, x_lo, x_hi);
      std::ostringstream line;
      line << "exponent=" << f.exponent << " R2=" << f.r_squared
           << " points=" << f.points;
      ctx.fit("ChurnStatic", line.str());
    }
    ctx.line("");

    // Churn sweep: target stationary sizes are powers of two; the M/M/∞
    // identity mean = join_rate * lifetime sets the rate per tier. Every
    // point owns a private manager + group, so points are independent and
    // the sweep splices back deterministically at any thread count.
    std::vector<double> targets;
    for (double m = 4.0; m <= static_cast<double>(ctx.u64("max_members"));
         m *= 2.0) {
      targets.push_back(m);
    }
    const double horizon = ctx.real("horizon");
    const double warmup = ctx.real("warmup");
    const std::uint64_t base_seed = ctx.u64("churn_seed");
    const std::size_t tiers = std::size(k_tiers);
    const std::size_t points = tiers * targets.size();
    std::vector<churn_point> results(points);
    ctx.sweep(points, [&](std::size_t index, recorder&) {
      const churn_tier& tier = k_tiers[index / targets.size()];
      const double target = targets[index % targets.size()];
      churn_workload w;
      w.join_rate = target / tier.mean_lifetime;
      w.mean_lifetime = tier.mean_lifetime;
      w.horizon = horizon;
      w.warmup = warmup;
      group_manager groups;
      groups.create("bench", "churn", g, group_config{});
      std::uint64_t seed_state = base_seed + static_cast<std::uint64_t>(index);
      results[index].target_members = target;
      results[index].metrics = run_poisson_churn(groups, "bench", "churn", w,
                                                 splitmix64(seed_state));
    });

    table_writer table({"tier", "lifetime", "target m", "avg members",
                        "avg links", "peak links", "graft/join"});
    for (std::size_t t = 0; t < tiers; ++t) {
      std::vector<double> xs, ys;
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const churn_point& point = results[t * targets.size() + i];
        const churn_metrics& m = point.metrics;
        xs.push_back(m.time_avg_members);
        ys.push_back(m.time_avg_links);
        table.add_row(
            {k_tiers[t].label, table_writer::num(k_tiers[t].mean_lifetime, 1),
             table_writer::num(point.target_members, 0),
             table_writer::num(m.time_avg_members, 3),
             table_writer::num(m.time_avg_links, 3),
             table_writer::num(static_cast<double>(m.peak_links), 0),
             table_writer::num(m.joins == 0
                                   ? 0.0
                                   : static_cast<double>(m.links_grafted) /
                                         static_cast<double>(m.joins),
                               3)});
      }
      ctx.series(std::string(k_tiers[t].label) +
                     "  (time-avg links vs time-avg members)",
                 xs, ys);
      const power_law_fit f = fit_power_law_windowed(xs, ys, x_lo, x_hi);
      std::ostringstream line;
      line << "exponent=" << f.exponent << " R2=" << f.r_squared
           << " points=" << f.points
           << " lifetime=" << k_tiers[t].mean_lifetime;
      ctx.fit(k_tiers[t].label, line.str());
    }
    ctx.table(table);
    ctx.line("");
    ctx.line(
        "finding: the time-averaged incremental tree tracks the static "
        "L(m) power law at every churn speed — graft/prune dynamics move "
        "the constant, not the exponent.");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
