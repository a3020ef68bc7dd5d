#include "lab/engine.hpp"

#include <chrono>
#include <ctime>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcast::lab {

run_outcome run_experiment(const experiment& exp, const run_options& opts) {
  run_outcome out;
  const param_set params =
      resolve_params(exp.params, opts.scale, opts.overrides);
  const std::size_t threads = resolve_thread_count(opts.threads);

  // Scope the metrics snapshot to this run. Trace rings are deliberately
  // NOT cleared here: `run --all --profile` wants one merged timeline
  // spanning every experiment.
  obs::reset_metrics();

  if (opts.banner) {
    out.output.text("== " + exp.id + " ==");
    out.output.text("# reproduces: " + exp.claim);
    out.output.text("# scale: " + std::to_string(opts.scale) +
                    " (set MCAST_BENCH_SCALE=0|1|2)");
    out.output.text("");
  }

  context ctx(exp, params, opts.scale, threads, opts.use_spt_cache,
              out.output);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::clock_t cpu_start = std::clock();
  {
    MCAST_OBS_SPAN("experiment:" + exp.id);
    exp.run(ctx);
  }
  const std::clock_t cpu_end = std::clock();
  const auto wall_end = std::chrono::steady_clock::now();

  run_record& record = out.manifest;
  record.experiment_id = exp.id;
  record.title = exp.title;
  record.claim = exp.claim;
  record.scale = opts.scale;
  record.threads = threads;
  record.use_spt_cache = opts.use_spt_cache;
  record.parameters = params;
  record.git_revision = current_git_revision();
  record.timestamp_utc = utc_timestamp();
  record.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  record.cpu_seconds = static_cast<double>(cpu_end - cpu_start) /
                       static_cast<double>(CLOCKS_PER_SEC);
  record.fits = out.output.fits();
  for (const xy_series& s : out.output.all_series()) {
    record.series_summary.emplace_back(s.label, s.x.size());
  }
  record.metric_groups = exp.metric_groups;
  record.metrics = obs::snapshot();
  return out;
}

}  // namespace mcast::lab
