// lm_estimate — Monte-Carlo L(m)/L̂(n) over a catalog topology.
//
// Validates the request, runs the measurement engine (core/runner.hpp) or,
// when degraded, the Eq 4 closed form, and renders the rows plus the
// Chuang-Sirbu fit.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "analysis/reachability.hpp"
#include "core/runner.hpp"
#include "core/scaling_law.hpp"
#include "service/ops.hpp"

namespace mcast::service {

namespace {

// A validated request: the resolved topology, receiver model, group-size
// grid and Monte-Carlo parameters.
struct lm_plan {
  std::shared_ptr<const graph> g;
  std::string model;  ///< "distinct" | "replacement"
  bool distinct = true;
  std::vector<std::uint64_t> grid;
  monte_carlo_params mc;
};

json::value point_row(const scaling_point& p) {
  json::value row = json::value::object();
  row.set("group_size", num_u(p.group_size));
  row.set("tree_links_mean", num(p.tree_links_mean));
  row.set("tree_links_stderr", num(p.tree_links_stderr));
  row.set("unicast_mean", num(p.unicast_mean));
  row.set("ratio_mean", num(p.ratio_mean));
  row.set("ratio_stderr", num(p.ratio_stderr));
  row.set("samples", num_u(p.samples));
  return row;
}

lm_plan plan_lm_estimate(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {
      "op",          "id",    "trace",         "topology",
      "topology_seed", "budget", "seed",       "group_sizes",
      "grid_points", "sources", "model",       "receiver_sets",
      "threads",     nullptr};
  reject_unknown_keys(req, allowed);
  lm_plan plan;
  plan.g = resolve_topology(req, ctx);
  const graph& g = *plan.g;
  const std::uint64_t sites = g.node_count() - 1;

  plan.model = string_or(req, "model", "distinct");
  if (plan.model != "distinct" && plan.model != "replacement") {
    throw request_error(error_code::bad_request,
                        "field 'model' must be 'distinct' or 'replacement'");
  }
  plan.distinct = plan.model == "distinct";

  if (req.get("group_sizes") != nullptr) {
    if (req.get("grid_points") != nullptr) {
      throw request_error(
          error_code::bad_request,
          "give either 'group_sizes' or 'grid_points', not both");
    }
    const json::value& gs = require_member(req, "group_sizes");
    if (!gs.is(json::value::kind::array) || gs.items().empty()) {
      throw request_error(error_code::bad_request,
                          "field 'group_sizes' must be a non-empty array");
    }
    if (gs.items().size() > ctx.limits.max_group_sizes) {
      throw request_error(error_code::limit_exceeded,
                          "field 'group_sizes' exceeds the service cap of " +
                              std::to_string(ctx.limits.max_group_sizes));
    }
    for (const json::value& item : gs.items()) {
      if (!item.is(json::value::kind::number) || item.as_number() < 1.0 ||
          item.as_number() != std::floor(item.as_number())) {
        throw request_error(error_code::bad_request,
                            "field 'group_sizes' must hold integers >= 1");
      }
      plan.grid.push_back(static_cast<std::uint64_t>(item.as_number()));
    }
  } else {
    const std::uint64_t points = bounded_u64(req, "grid_points", 12, 2,
                                             ctx.limits.max_group_sizes);
    plan.grid = default_group_grid(sites, static_cast<std::size_t>(points));
  }
  if (plan.distinct) {
    for (const std::uint64_t m : plan.grid) {
      if (m > sites) {
        throw request_error(error_code::bad_request,
                            "group size " + std::to_string(m) +
                                " exceeds the topology's " +
                                std::to_string(sites) + " candidate sites");
      }
    }
  }

  plan.mc.seed = u64_or(req, "seed", 1999);
  plan.mc.sources = static_cast<std::size_t>(
      bounded_u64(req, "sources", 20, 1, ctx.limits.max_sources));
  plan.mc.receiver_sets = static_cast<std::size_t>(
      bounded_u64(req, "receiver_sets", 20, 1, ctx.limits.max_receiver_sets));
  plan.mc.threads = static_cast<std::size_t>(
      bounded_u64(req, "threads", 1, 1, ctx.limits.max_threads));
  return plan;
}

std::vector<scaling_point> lm_closed_form(const lm_plan& plan) {
  // Under pressure: answer from the Chuang-Sirbu closed form (Eq 4),
  // L(m) ≈ ū·m^0.8, with ū from a single BFS instead of the full
  // Monte-Carlo sweep. samples = 0 marks every row as model-derived.
  const double ubar = reachability_from(*plan.g, 0).mean_distance();
  std::vector<scaling_point> points;
  points.reserve(plan.grid.size());
  for (const std::uint64_t m : plan.grid) {
    scaling_point p;
    p.group_size = m;
    p.ratio_mean = std::pow(static_cast<double>(m), 0.8);
    p.tree_links_mean = ubar * p.ratio_mean;
    p.tree_links_stderr = 0.0;
    p.unicast_mean = ubar;
    p.ratio_stderr = 0.0;
    p.samples = 0;
    points.push_back(p);
  }
  return points;
}

json::value render_lm_estimate(const lm_plan& plan,
                               const std::vector<scaling_point>& points,
                               bool degraded) {
  const graph& g = *plan.g;
  json::value rows = json::value::array();
  for (const scaling_point& p : points) rows.push(point_row(p));

  json::value result = json::value::object();
  result.set("topology", json::value::string(g.name()));
  result.set("nodes", num_u(g.node_count()));
  result.set("edges", num_u(g.edge_count()));
  result.set("model", json::value::string(plan.model));
  result.set("seed", num_u(plan.mc.seed));
  // Present only when shed to the closed form, so the fault-free response
  // stays byte-identical to what it was before shedding existed.
  if (degraded) result.set("degraded", json::value::boolean(true));
  result.set("rows", std::move(rows));

  // The Chuang-Sirbu fit over the paper's window, when enough of the
  // grid falls inside it to be meaningful.
  std::size_t usable = 0;
  for (const scaling_point& p : points) {
    if (p.samples > 0 && p.group_size >= 2 && p.group_size <= 500) ++usable;
  }
  if (usable >= 3) {
    const scaling_law law = scaling_law::fit_to(points, 2.0, 500.0);
    json::value fit = json::value::object();
    fit.set("amplitude", num(law.amplitude()));
    fit.set("exponent", num(law.exponent()));
    fit.set("r_squared", num(law.r_squared()));
    result.set("fit", std::move(fit));
  }
  return result;
}

}  // namespace

json::value op_lm_estimate(const json::value& req, const op_context& ctx,
                           bool degraded) {
  const lm_plan plan = plan_lm_estimate(req, ctx);
  if (degraded) return render_lm_estimate(plan, lm_closed_form(plan), true);
  const std::vector<scaling_point> points =
      plan.distinct ? measure_distinct_receivers(*plan.g, plan.grid, plan.mc)
                    : measure_with_replacement(*plan.g, plan.grid, plan.mc);
  return render_lm_estimate(plan, points, false);
}

}  // namespace mcast::service
