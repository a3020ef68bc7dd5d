#include "core/runner.hpp"

#include <optional>

#include "analysis/series.hpp"
#include "analysis/stats.hpp"
#include "common/contract.hpp"
#include "core/parallel.hpp"
#include "graph/components.hpp"
#include "graph/workspace.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"
#include "multicast/spt.hpp"
#include "multicast/spt_cache.hpp"
#include "multicast/unicast.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace mcast {

namespace {

enum class receiver_model { distinct, with_replacement };

// Per-group-size Welford accumulators of one source task. Welford merging
// is NOT floating-point associative, so blocks are always merged in
// ascending source order — the sequence that makes results independent of
// the thread count.
struct mc_cell {
  running_stats ratio;
  running_stats tree;
  running_stats unicast;
  running_stats distinct;

  void merge(const mc_cell& other) {
    ratio.merge(other.ratio);
    tree.merge(other.tree);
    unicast.merge(other.unicast);
    distinct.merge(other.distinct);
  }
};

// Derives the independent RNG stream of source-task `s`. Pure function of
// (seed, s, salt) so the result is identical for any thread schedule.
rng task_stream(std::uint64_t seed, std::size_t s, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt ^ (0x9e3779b97f4a7c15ULL * (s + 1));
  return rng(splitmix64(state));
}

// The parallel_for state of the runner: reusable hot-path state owned by
// one worker thread. Everything in here
// is an optimization only — SPTs, universes and samples come out identical
// to freshly allocated ones, so sharing a context across that worker's
// source tasks cannot perturb any result.
struct worker_context {
  traversal_workspace ws;
  spt_cache cache{64};
  std::vector<node_id> universe;
  std::vector<node_id> sample;
  std::optional<delivery_tree_builder> builder;
};

// The work of one source: draw the source, build (or fetch) its SPT, run
// all (group size x receiver set) samples into `out` (size = group count).
// When `view` is non-null the SPT and the candidate universe honor its
// failure mask, and group sizes the source cannot satisfy are skipped.
// The context supplies the reusable SPT cache, traversal workspace and
// sample buffers of the calling worker thread.
void run_one_source(const graph& g, const degraded_view* view,
                    const std::vector<std::uint64_t>& group_sizes,
                    const monte_carlo_params& params, receiver_model model,
                    std::size_t s, const std::vector<node_id>& source_pool,
                    worker_context& ctx, std::vector<mc_cell>& out) {
  obs::add(obs::counter::mc_source_tasks);
  rng gen = task_stream(params.seed, s, /*salt=*/0);
  const node_id source = source_pool[gen.below(source_pool.size())];
  rng parent_gen = task_stream(params.seed, s, /*salt=*/0x7469656272656b00ULL);

  // The SPT either lives in the worker's cache (shared_ptr keeps it alive
  // for this task even if evicted) or in task-local storage.
  std::shared_ptr<const source_tree> from_cache;
  std::optional<source_tree> local;
  if (params.randomize_spt_parents && view == nullptr) {
    // Randomized tie-breaking consumes parent_gen, so every task's tree is
    // unique — nothing to memoize.
    local.emplace(g, bfs_from_random_parents(
                         g, source,
                         [&parent_gen](std::uint32_t k) {
                           return parent_gen.below(k);
                         }));
  } else if (view != nullptr) {
    if (params.use_spt_cache) {
      from_cache = ctx.cache.get(*view, source, ctx.ws);
    } else {
      bfs_tree t;
      local.emplace(g, std::move(bfs_from(*view, source, ctx.ws, t)));
    }
  } else if (params.use_spt_cache) {
    from_cache = ctx.cache.get(g, source, ctx.ws);
  } else {
    local.emplace(g, source, ctx.ws);
  }
  const source_tree& spt = from_cache ? *from_cache : *local;

  ctx.universe.clear();
  if (view == nullptr) {
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (v != source) ctx.universe.push_back(v);
    }
  } else {
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (v != source && spt.distance(v) != unreachable) {
        ctx.universe.push_back(v);
      }
    }
  }
  if (ctx.builder) {
    ctx.builder->rebind(spt);
  } else {
    ctx.builder.emplace(spt);
  }
  delivery_tree_builder& builder = *ctx.builder;

  for (std::size_t gi = 0; gi < group_sizes.size(); ++gi) {
    const std::uint64_t size = group_sizes[gi];
    if (model == receiver_model::distinct && size > ctx.universe.size()) {
      continue;  // this source cannot field m distinct receivers
    }
    for (std::size_t rep = 0; rep < params.receiver_sets; ++rep) {
      if (model == receiver_model::distinct) {
        sample_distinct_into(ctx.universe, size, gen, ctx.sample);
      } else {
        sample_with_replacement_into(ctx.universe, size, gen, ctx.sample);
      }
      builder.reset();
      std::uint64_t path_total = 0;
      for (node_id v : ctx.sample) {
        builder.add_receiver(v);
        path_total += spt.distance(v);
      }
      const double links = static_cast<double>(builder.link_count());
      const double ubar = static_cast<double>(path_total) /
                          static_cast<double>(ctx.sample.size());
      out[gi].tree.add(links);
      out[gi].unicast.add(ubar);
      out[gi].distinct.add(static_cast<double>(builder.distinct_receiver_count()));
      // ū is never 0: receivers exclude the source, so every path >= 1.
      out[gi].ratio.add(links / ubar);
    }
  }
}

// Shared validation + execution. Runs every source task of the
// measurement and returns their un-merged accumulator blocks (element s
// belongs to source index s).
std::vector<std::vector<mc_cell>> measure_sources(
    const graph& g, const degraded_view* view,
    const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params, receiver_model model) {
  expects(g.node_count() >= 2, "measure: graph needs at least two nodes");
  expects(params.sources >= 1 && params.receiver_sets >= 1,
          "measure: sources and receiver_sets must be >= 1");
  const std::uint64_t sites = g.node_count() - 1;  // all nodes except source
  for (std::uint64_t m : group_sizes) {
    expects(m >= 1, "measure: group sizes must be >= 1");
    if (model == receiver_model::distinct) {
      expects(m <= sites, "measure: m exceeds candidate receiver count");
    }
  }
  // Pristine measurements demand a connected graph (the paper's setting);
  // degraded ones sample around the holes instead.
  std::vector<node_id> source_pool;
  if (view == nullptr) {
    expects(is_connected(g), "measure: graph must be connected");
    source_pool.resize(g.node_count());
    for (node_id v = 0; v < g.node_count(); ++v) source_pool[v] = v;
  } else {
    expects(!params.randomize_spt_parents,
            "measure: randomized SPT parents are not supported on degraded views");
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (view->node_alive(v)) source_pool.push_back(v);
    }
    expects(source_pool.size() >= 2,
            "measure: degraded view must leave at least two alive nodes");
  }

  // Every source task writes its own accumulator block; blocks are merged
  // in source order afterwards, so the result is independent of both the
  // thread count and the scheduling. Each worker owns its cache and
  // workspace: no sharing, no locks, and — because cache state can never
  // alter a tree — no dependence of the results on which worker ran which
  // source.
  std::vector<std::vector<mc_cell>> per_source(
      params.sources, std::vector<mc_cell>(group_sizes.size()));
  parallel_for<worker_context>(
      params.sources, params.threads, [&](worker_context& ctx, std::size_t i) {
        run_one_source(g, view, group_sizes, params, model, i, source_pool,
                       ctx, per_source[i]);
      });
  return per_source;
}

// Folds per-source blocks into scaling rows, merging block s into the
// running total before block s+1.
std::vector<scaling_point> splice_source_cells(
    const std::vector<std::uint64_t>& group_sizes,
    const std::vector<std::vector<mc_cell>>& per_source) {
  std::vector<mc_cell> total(group_sizes.size());
  for (const std::vector<mc_cell>& block : per_source) {
    for (std::size_t gi = 0; gi < group_sizes.size(); ++gi) {
      total[gi].merge(block[gi]);
    }
  }

  std::vector<scaling_point> out(group_sizes.size());
  for (std::size_t gi = 0; gi < group_sizes.size(); ++gi) {
    out[gi].group_size = group_sizes[gi];
    out[gi].tree_links_mean = total[gi].tree.mean();
    out[gi].tree_links_stderr = total[gi].tree.stderr_mean();
    out[gi].unicast_mean = total[gi].unicast.mean();
    out[gi].ratio_mean = total[gi].ratio.mean();
    out[gi].ratio_stderr = total[gi].ratio.stderr_mean();
    out[gi].distinct_mean = total[gi].distinct.mean();
    out[gi].samples = total[gi].ratio.count();
  }
  return out;
}

std::vector<scaling_point> measure(const graph& g, const degraded_view* view,
                                   const std::vector<std::uint64_t>& group_sizes,
                                   const monte_carlo_params& params,
                                   receiver_model model) {
  MCAST_OBS_SPAN("monte_carlo_measure");
  return splice_source_cells(
      group_sizes, measure_sources(g, view, group_sizes, params, model));
}

}  // namespace

std::vector<scaling_point> measure_distinct_receivers(
    const graph& g, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params) {
  return measure(g, nullptr, group_sizes, params, receiver_model::distinct);
}

std::vector<scaling_point> measure_with_replacement(
    const graph& g, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params) {
  return measure(g, nullptr, group_sizes, params, receiver_model::with_replacement);
}

std::vector<scaling_point> measure_distinct_receivers(
    const degraded_view& view, const std::vector<std::uint64_t>& group_sizes,
    const monte_carlo_params& params) {
  return measure(view.base(), &view, group_sizes, params,
                 receiver_model::distinct);
}

std::vector<std::uint64_t> default_group_grid(std::uint64_t sites,
                                              std::size_t points) {
  expects(sites >= 1, "default_group_grid: need at least one site");
  return log_grid_integers(1, sites, points);
}

}  // namespace mcast
