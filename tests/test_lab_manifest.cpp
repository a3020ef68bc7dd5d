// JSON layer + run-manifest schema checks: dump/parse round-trips, the
// manifest document built from a run_record validates cleanly, and
// validate_manifest is loud about every missing or ill-typed field.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "lab/json.hpp"
#include "lab/manifest.hpp"

namespace mcast::lab {
namespace {

TEST(lab_json, parse_dump_round_trip) {
  const std::string text =
      "{\"a\": 1, \"b\": [true, false, null], \"c\": {\"x\": \"s\"},"
      " \"d\": -2.5e3, \"e\": \"\\u00e9\\n\"}";
  const json::value v = json::parse(text);
  EXPECT_DOUBLE_EQ(v.get("a")->as_number(), 1.0);
  EXPECT_EQ(v.get("b")->items().size(), 3u);
  EXPECT_TRUE(v.get("b")->items()[0].as_bool());
  EXPECT_TRUE(v.get("b")->items()[2].is(json::value::kind::null));
  EXPECT_EQ(v.get("c")->get("x")->as_string(), "s");
  EXPECT_DOUBLE_EQ(v.get("d")->as_number(), -2500.0);
  EXPECT_EQ(v.get("e")->as_string(), "\xc3\xa9\n");

  // dump -> parse -> dump must be a fixed point (deterministic layout).
  const std::string once = json::dump(v);
  const std::string twice = json::dump(json::parse(once));
  EXPECT_EQ(once, twice);
}

TEST(lab_json, parse_rejects_malformed) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\":1,}"}) {
    EXPECT_THROW(json::parse(bad), std::invalid_argument) << bad;
  }
}

run_record sample_record() {
  run_record r;
  r.experiment_id = "fig2";
  r.title = "Fig 2";
  r.claim = "h(x) vs x";
  r.scale = 0;
  r.threads = 4;
  r.parameters.set("points", std::uint64_t{20});
  r.parameters.set("seed", std::uint64_t{1999});
  r.parameters.set("horizon", 2.5);
  r.git_revision = "deadbeef";
  r.timestamp_utc = "2026-08-06T12:00:00Z";
  r.wall_seconds = 0.25;
  r.cpu_seconds = 0.5;
  fit_entry f;
  f.label = "Fig2/k=4,D=5";
  f.text = "slope_ratio=1.01 R2=0.999";
  f.values = {{"slope_ratio", 1.01}, {"R2", 0.999}};
  r.fits.push_back(f);
  r.series_summary = {{"k=4 D=5  (h(x) vs x)", 20}};
  r.metric_groups = {"scheduler"};
  r.metrics.counters[static_cast<std::size_t>(obs::counter::sched_tasks)] = 6;
  return r;
}

TEST(lab_manifest, record_round_trips_and_validates) {
  const run_record r = sample_record();
  const std::string text = render_manifest(r);
  const json::value doc = json::parse(text);

  EXPECT_EQ(doc.get("schema")->as_string(), manifest_schema);
  EXPECT_EQ(doc.get("experiment")->as_string(), "fig2");
  EXPECT_EQ(doc.get("scale")->as_number(), 0.0);
  EXPECT_EQ(doc.get("threads")->as_number(), 4.0);
  // Seeds are surfaced both inside `parameters` and in the `seeds` index.
  EXPECT_DOUBLE_EQ(doc.get("parameters")->get("seed")->as_number(), 1999.0);
  EXPECT_DOUBLE_EQ(doc.get("seeds")->get("seed")->as_number(), 1999.0);
  ASSERT_EQ(doc.get("fits")->items().size(), 1u);
  const json::value& fit = doc.get("fits")->items()[0];
  EXPECT_EQ(fit.get("label")->as_string(), "Fig2/k=4,D=5");
  EXPECT_DOUBLE_EQ(fit.get("values")->get("R2")->as_number(), 0.999);

  // Schema /2: the metrics section always carries every registered metric
  // (zeros included) so downstream tooling never key-checks.
  ASSERT_EQ(doc.get("metric_groups")->items().size(), 1u);
  EXPECT_EQ(doc.get("metric_groups")->items()[0].as_string(), "scheduler");
  const json::value* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->get("counters")->members().size(), obs::counter_count);
  EXPECT_EQ(metrics->get("gauges")->members().size(), obs::gauge_count);
  EXPECT_EQ(metrics->get("histograms")->members().size(),
            obs::histogram_count);
  EXPECT_DOUBLE_EQ(metrics->get("counters")->get("sched.tasks")->as_number(),
                   6.0);
  EXPECT_NE(metrics->get("derived")->get("scheduler_busy_fraction"), nullptr);

  EXPECT_TRUE(validate_manifest(doc).empty());
}

TEST(lab_manifest, validate_catches_missing_and_ill_typed_fields) {
  const json::value good = json::parse(render_manifest(sample_record()));
  ASSERT_TRUE(validate_manifest(good).empty());

  // Not an object at all.
  EXPECT_FALSE(validate_manifest(json::value::array()).empty());

  // Wrong schema string.
  {
    json::value doc = good;
    doc.set("schema", json::value::string("something-else/9"));
    EXPECT_FALSE(validate_manifest(doc).empty());
  }
  // Empty experiment id.
  {
    json::value doc = good;
    doc.set("experiment", json::value::string(""));
    EXPECT_FALSE(validate_manifest(doc).empty());
  }
  // threads must be >= 1.
  {
    json::value doc = good;
    doc.set("threads", json::value::number(0));
    EXPECT_FALSE(validate_manifest(doc).empty());
  }
  // Each required key, when dropped, must produce a problem naming it.
  for (const char* key :
       {"schema", "experiment", "scale", "threads", "parameters", "git_revision", "timestamp_utc", "wall_seconds",
        "cpu_seconds", "fits", "series", "metric_groups", "metrics"}) {
    json::value doc = json::value::object();
    for (const auto& [k, v] : good.members()) {
      if (k != key) doc.set(k, v);
    }
    const std::vector<std::string> problems = validate_manifest(doc);
    ASSERT_FALSE(problems.empty()) << key;
    bool named = false;
    for (const std::string& p : problems) {
      if (p.find(key) != std::string::npos) named = true;
    }
    EXPECT_TRUE(named) << key << ": " << problems.front();
  }
  // Ill-shaped fit entries are flagged too.
  {
    json::value doc = good;
    json::value fits = json::value::array();
    fits.push(json::value::number(3));
    doc.set("fits", fits);
    EXPECT_FALSE(validate_manifest(doc).empty());
  }
  // A metrics object missing its sub-objects is flagged.
  {
    json::value doc = good;
    doc.set("metrics", json::value::object());
    const std::vector<std::string> problems = validate_manifest(doc);
    EXPECT_FALSE(problems.empty());
  }
  // A malformed histogram summary is flagged.
  {
    json::value doc = good;
    json::value metrics = *good.get("metrics");
    json::value histograms = *metrics.get("histograms");
    histograms.set("sched.task_ns", json::value::number(1));
    metrics.set("histograms", histograms);
    doc.set("metrics", metrics);
    EXPECT_FALSE(validate_manifest(doc).empty());
  }
}

TEST(lab_manifest, git_revision_env_override) {
  ASSERT_EQ(setenv("MCAST_GIT_REVISION", "test-rev-123", 1), 0);
  EXPECT_EQ(current_git_revision(), "test-rev-123");
  ASSERT_EQ(unsetenv("MCAST_GIT_REVISION"), 0);
}

}  // namespace
}  // namespace mcast::lab
