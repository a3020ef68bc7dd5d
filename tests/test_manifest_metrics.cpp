// Manifest/2 metrics end-to-end: a real experiment run produces a
// manifest whose metrics section round-trips through the JSON layer and
// passes validate_manifest, and — design rule #1 of src/obs — the
// experiment's *output* is byte-identical whether the obs registry is
// recording or runtime-disabled, and across thread counts.
//
// (The compile-time kill switch MCAST_OBS_DISABLED is the same comparison
// across two builds; CI's cross-build job covers that configuration.)
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "experiments.hpp"

#include "lab/engine.hpp"
#include "lab/json.hpp"
#include "lab/manifest.hpp"
#include "lab/registry.hpp"
#include "obs/metrics.hpp"

namespace mcast::lab {
namespace {

const registry& suite() {
  static registry* reg = [] {
    auto* r = new registry();
    register_builtin(*r);
    return r;
  }();
  return *reg;
}

run_options smoke_options(std::size_t threads = 1) {
  run_options opts;
  opts.scale = 0;
  opts.threads = threads;
  opts.banner = false;
  return opts;
}

std::string rendered_output(const run_outcome& outcome) {
  std::ostringstream out;
  outcome.output.render(out);
  return out.str();
}

TEST(manifest_metrics, experiment_manifest_round_trips_and_validates) {
  obs::set_enabled(true);
  const experiment* exp = suite().find("fig4");
  ASSERT_NE(exp, nullptr);
  const run_outcome outcome = run_experiment(*exp, smoke_options());

  const json::value doc = json::parse(render_manifest(outcome.manifest));
  EXPECT_TRUE(validate_manifest(doc).empty());
  EXPECT_EQ(doc.get("schema")->as_string(), "mcast-lab-manifest/2");

  // fig4 declares the scheduler group and fans its panels over it, so the
  // round-tripped metrics must show actual scheduler activity.
  ASSERT_FALSE(doc.get("metric_groups")->items().empty());
  EXPECT_EQ(doc.get("metric_groups")->items()[0].as_string(), "scheduler");
  const json::value* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  if (obs::compiled_in) {
    EXPECT_TRUE(metrics->get("enabled")->as_bool());
    EXPECT_GT(metrics->get("counters")->get("sched.tasks")->as_number(), 0.0);
    EXPECT_GT(
        metrics->get("histograms")->get("sched.task_ns")->get("count")->as_number(),
        0.0);
    EXPECT_GT(metrics->get("derived")->get("scheduler_busy_fraction")->as_number(),
              0.0);
  } else {
    EXPECT_FALSE(metrics->get("enabled")->as_bool());
  }
}

TEST(manifest_metrics, monte_carlo_run_populates_runner_and_traversal) {
  if (!obs::compiled_in) GTEST_SKIP() << "built with MCAST_OBS_DISABLED";
  obs::set_enabled(true);
  const experiment* exp = suite().find("fig1");
  ASSERT_NE(exp, nullptr);
  const run_outcome outcome = run_experiment(*exp, smoke_options());
  const obs::metrics_snapshot& s = outcome.manifest.metrics;
  EXPECT_GT(s.at(obs::counter::bfs_passes), 0u);
  EXPECT_GT(s.at(obs::counter::nodes_visited), 0u);
  EXPECT_GT(s.at(obs::counter::edges_scanned), 0u);
  EXPECT_GT(s.at(obs::counter::mc_source_tasks), 0u);
  EXPECT_GT(s.at(obs::histogram::visited_per_pass).count, 0u);
}

// Design rule #1: recording metrics must not change a single output byte.
TEST(manifest_metrics, output_bytes_identical_with_obs_on_and_off) {
  const experiment* exp = suite().find("fig1");
  ASSERT_NE(exp, nullptr);

  obs::set_enabled(true);
  const std::string with_obs =
      rendered_output(run_experiment(*exp, smoke_options()));

  obs::set_enabled(false);
  const std::string without_obs =
      rendered_output(run_experiment(*exp, smoke_options()));
  obs::set_enabled(true);

  EXPECT_EQ(with_obs, without_obs);
  EXPECT_FALSE(with_obs.empty());
}

TEST(manifest_metrics, output_bytes_identical_across_thread_counts) {
  obs::set_enabled(true);
  const experiment* exp = suite().find("fig1");
  ASSERT_NE(exp, nullptr);
  const std::string serial =
      rendered_output(run_experiment(*exp, smoke_options(1)));
  const std::string threaded =
      rendered_output(run_experiment(*exp, smoke_options(4)));
  EXPECT_EQ(serial, threaded);
}

TEST(manifest_metrics, disabled_run_reports_disabled_metrics) {
  if (!obs::compiled_in) GTEST_SKIP() << "built with MCAST_OBS_DISABLED";
  const experiment* exp = suite().find("fig4");
  ASSERT_NE(exp, nullptr);
  obs::set_enabled(false);
  const run_outcome outcome = run_experiment(*exp, smoke_options());
  obs::set_enabled(true);
  const json::value doc = json::parse(render_manifest(outcome.manifest));
  EXPECT_TRUE(validate_manifest(doc).empty());
  EXPECT_FALSE(doc.get("metrics")->get("enabled")->as_bool());
  EXPECT_DOUBLE_EQ(
      doc.get("metrics")->get("counters")->get("sched.tasks")->as_number(),
      0.0);
}

}  // namespace
}  // namespace mcast::lab
