// JSON run manifests — the provenance record every mcast_lab run emits.
//
// A manifest captures everything needed to re-run or audit an invocation:
// experiment id, the fully-resolved parameter values (seeds included), the
// MCAST_BENCH_SCALE tier, thread count, git revision, wall/CPU time, and
// the fitted exponents parsed from the run's FIT lines. Manifests are
// written as `BENCH_<id>.json` so CI can collect them next to the
// micro-benchmark's BENCH_micro.json as one perf-trajectory artifact.
//
// `validate_manifest` is the read-back half: `mcast_lab validate <dir>`
// and the ctest smoke pair use it to schema-check what a run produced.
//
// Schema history:
//   mcast-lab-manifest/1 — id/params/seeds/timing/fits/series.
//   mcast-lab-manifest/2 — adds the `metrics` section: the obs registry
//     snapshot scoped to the run (counters, gauges, histogram summaries)
//     plus derived headline rates (scheduler busy fraction, traversal
//     passes), and the experiment's declared metric_groups. The name
//     stayed when the per-source SPT cache was deleted: its top-level
//     on/off flag and its derived hit rate are gone, and the validator
//     ignores them in older manifests.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lab/json.hpp"
#include "lab/params.hpp"
#include "lab/recorder.hpp"
#include "obs/metrics.hpp"

namespace mcast::lab {

inline constexpr const char* manifest_schema = "mcast-lab-manifest/2";

/// Everything recorded about one experiment run.
struct run_record {
  std::string experiment_id;
  std::string title;
  std::string claim;
  int scale = 0;
  std::size_t threads = 1;
  param_set parameters;
  std::string git_revision;
  std::string timestamp_utc;  ///< ISO-8601, e.g. "2026-08-06T12:00:00Z"
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<fit_entry> fits;
  /// (series label, number of points) for each emitted series.
  std::vector<std::pair<std::string, std::size_t>> series_summary;
  /// Metric groups the experiment declares (experiment::metric_groups).
  std::vector<std::string> metric_groups;
  /// Obs registry snapshot scoped to this run (reset at run start, read
  /// after the run function returns). All-zero when obs is disabled.
  obs::metrics_snapshot metrics;
};

/// Builds the manifest document (ordered keys, deterministic layout).
json::value to_json(const run_record& record);

/// Serialized manifest text (json::dump of to_json).
std::string render_manifest(const run_record& record);

/// Writes the manifest to `path`; throws std::runtime_error on I/O failure.
void write_manifest(const run_record& record, const std::string& path);

/// Schema check for a parsed manifest document. Returns human-readable
/// problems; empty means the manifest is valid.
std::vector<std::string> validate_manifest(const json::value& doc);

/// `git describe --always --dirty` of the working tree, with the
/// MCAST_GIT_REVISION environment variable as an override (useful in CI
/// and tests); "unknown" when git is unavailable.
std::string current_git_revision();

/// Current UTC time formatted ISO-8601.
std::string utc_timestamp();

}  // namespace mcast::lab
