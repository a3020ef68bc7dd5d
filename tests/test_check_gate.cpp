// Perf-trajectory gate corpus (check/perf_gate.hpp): synthetic
// baseline-vs-current manifest pairs covering pass, regression beyond
// tolerance in both directions, metric missing from current, and metric
// new since the baseline — plus the `check` verb's exit codes and the
// byte-determinism of its --report output.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/command.hpp"
#include "check/perf_gate.hpp"
#include "check/spec.hpp"
#include "common/json.hpp"
#include "proc_util.hpp"

namespace mcast::check {
namespace {

// Minimal manifest with an SvcLoad fit; qps/p99 are the gated metrics.
std::string manifest_text(double qps, double p99_ms, bool with_p99 = true) {
  std::ostringstream out;
  out << "{\"schema\": \"mcast-lab-manifest/2\", \"wall_seconds\": 1.0,\n"
      << " \"cpu_seconds\": 1.0, \"scale\": 0, \"threads\": 2,\n"
      << " \"fits\": [{\"label\": \"SvcLoad\", \"text\": \"synthetic\",\n"
      << "   \"values\": {\"qps\": " << qps;
  if (with_p99) out << ", \"p99_ms\": " << p99_ms;
  out << "}}],\n \"metric_groups\": [], \"metrics\": {\"enabled\": false}}\n";
  return out.str();
}

json::value manifest(double qps, double p99_ms, bool with_p99 = true) {
  return json::parse(manifest_text(qps, p99_ms, with_p99));
}

// 0.25 is exact in binary, so the bounds (750, 10) print crisply under
// the report's %.17g and the boundary tests cannot rot on rounding.
spec gates_spec() {
  return parse_spec(
      "gate fit.SvcLoad.qps higher_better 0.25\n"
      "gate fit.SvcLoad.p99_ms lower_better 0.25\n",
      "g.expect");
}

TEST(check_gate, within_tolerance_passes) {
  // qps may drop 25%, p99 may grow 25%; both stay inside.
  const auto gates =
      eval_gates(gates_spec(), manifest(1000, 8.0), manifest(800, 9.5));
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].status, "ok");
  EXPECT_EQ(gates[1].status, "ok");
  EXPECT_DOUBLE_EQ(gates[0].baseline, 1000.0);
  EXPECT_DOUBLE_EQ(gates[0].current, 800.0);
  EXPECT_TRUE(gate_violations(gates).empty());
}

TEST(check_gate, boundary_values_pass) {
  // Exactly at the bound is not a regression (strict inequality).
  const auto gates =
      eval_gates(gates_spec(), manifest(1000, 8.0), manifest(750, 10.0));
  EXPECT_EQ(gates[0].status, "ok");
  EXPECT_EQ(gates[1].status, "ok");
}

TEST(check_gate, higher_better_regression_beyond_tolerance) {
  const auto gates =
      eval_gates(gates_spec(), manifest(1000, 8.0), manifest(749, 8.0));
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].status, "regression");
  EXPECT_EQ(gates[1].status, "ok");
  const auto v = gate_violations(gates);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 1);
  EXPECT_EQ(v[0].rule, "gate fit.SvcLoad.qps higher_better 0.25");
  EXPECT_EQ(v[0].message,
            "fit.SvcLoad.qps regressed: current 749 vs baseline 1000 "
            "(must stay >= 750 at tolerance 0.25)");
}

TEST(check_gate, lower_better_regression_beyond_tolerance) {
  const auto gates =
      eval_gates(gates_spec(), manifest(1000, 8.0), manifest(1000, 10.1));
  EXPECT_EQ(gates[0].status, "ok");
  EXPECT_EQ(gates[1].status, "regression");
  const auto v = gate_violations(gates);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("must stay <= 10"), std::string::npos)
      << v[0].message;
}

TEST(check_gate, metric_missing_from_current_fails) {
  // The current run stopped emitting p99 — exactly the silent-regression
  // class the gate exists to catch.
  const auto gates = eval_gates(gates_spec(), manifest(1000, 8.0),
                                manifest(1000, 0.0, /*with_p99=*/false));
  EXPECT_EQ(gates[1].status, "missing");
  const auto v = gate_violations(gates);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].message,
            "fit.SvcLoad.p99_ms is gated but missing from the current "
            "manifest");
}

TEST(check_gate, metric_new_since_baseline_passes) {
  // Baseline predates the metric: "new" status, no violation, so adding
  // a metric cannot break CI before the baseline refresh lands.
  const auto gates = eval_gates(
      gates_spec(), manifest(1000, 0.0, /*with_p99=*/false),
      manifest(1000, 8.0));
  EXPECT_EQ(gates[1].status, "new");
  EXPECT_TRUE(gate_violations(gates).empty());
}

// ---------------------------------------------------------------------------
// The `check` verb end to end: exit codes and report bytes.

class check_gate_cli : public ::testing::Test {
 protected:
  std::string path(const char* name) const {
    return testproc::temp_path(std::string("check_gate_") + name);
  }

  std::string write(const char* name, const std::string& text) const {
    const std::string p = path(name);
    std::ofstream f(p, std::ios::trunc);
    f << text;
    return p;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream f(p);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
  }
};

TEST_F(check_gate_cli, exit_codes_and_deterministic_report) {
  const std::string expect = write(
      "g.expect", "gate fit.SvcLoad.qps higher_better 0.10\n");
  const std::string base = write("base.json", manifest_text(1000, 8.0));
  const std::string good = write("good.json", manifest_text(990, 8.0));
  const std::string bad = write("bad.json", manifest_text(500, 8.0));

  EXPECT_EQ(run_check({"--manifest", good, "--expect", expect,
                       "--baseline", base}),
            exit_ok);
  EXPECT_EQ(run_check({"--manifest", bad, "--expect", expect,
                       "--baseline", base}),
            exit_violations);

  // Gate rules without --baseline: spec error, not a silent pass.
  EXPECT_EQ(run_check({"--manifest", good, "--expect", expect}),
            exit_spec_error);

  // The machine-readable report is byte-deterministic across runs.
  const std::string r1 = path("report1.json"), r2 = path("report2.json");
  EXPECT_EQ(run_check({"--manifest", bad, "--expect", expect,
                       "--baseline", base, "--report", r1}),
            exit_violations);
  EXPECT_EQ(run_check({"--manifest", bad, "--expect", expect,
                       "--baseline=" + base, "--report=" + r2}),
            exit_violations);
  const std::string bytes = slurp(r1);
  EXPECT_EQ(bytes, slurp(r2));
  EXPECT_FALSE(bytes.empty());

  const json::value report = json::parse(bytes);
  ASSERT_NE(report.get("schema"), nullptr);
  EXPECT_EQ(report.get("schema")->as_string(), report_schema);
  EXPECT_FALSE(report.get("pass")->as_bool());
  EXPECT_DOUBLE_EQ(report.get("rules")->as_number(), 1.0);
  ASSERT_EQ(report.get("violations")->items().size(), 1u);
  const json::value& gate = report.get("gates")->items().at(0);
  EXPECT_EQ(gate.get("status")->as_string(), "regression");
  EXPECT_EQ(gate.get("direction")->as_string(), "higher_better");
  EXPECT_DOUBLE_EQ(gate.get("baseline")->as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(gate.get("current")->as_number(), 500.0);
}

TEST_F(check_gate_cli, new_metric_report_and_note) {
  const std::string expect = write(
      "n.expect",
      "gate fit.SvcLoad.qps higher_better 0.10\n"
      "gate fit.SvcLoad.p99_ms lower_better 0.25\n");
  const std::string base =
      write("n_base.json", manifest_text(1000, 0.0, /*with_p99=*/false));
  const std::string cur = write("n_cur.json", manifest_text(1000, 8.0));
  const std::string report = path("n_report.json");
  EXPECT_EQ(run_check({"--manifest", cur, "--expect", expect,
                       "--baseline", base, "--report", report}),
            exit_ok);
  const json::value doc = json::parse(slurp(report));
  EXPECT_TRUE(doc.get("pass")->as_bool());
  EXPECT_EQ(doc.get("gates")->items().at(1).get("status")->as_string(),
            "new");
}

TEST_F(check_gate_cli, input_errors_are_spec_errors) {
  const std::string expect = write("e.expect", "assert threads >= 1\n");
  const std::string good = write("e_good.json", manifest_text(1, 1));
  EXPECT_EQ(run_check({"--manifest", good, "--expect", expect}), exit_ok);

  // Unreadable / malformed artifacts: exit 2, never a crash.
  EXPECT_EQ(run_check({"--manifest", path("absent.json"),
                       "--expect", expect}),
            exit_spec_error);
  const std::string junk = write("junk.json", "{not json");
  EXPECT_EQ(run_check({"--manifest", junk, "--expect", expect}),
            exit_spec_error);
  const std::string bad_spec = write("bad.expect", "frobnicate\n");
  EXPECT_EQ(run_check({"--manifest", good, "--expect", bad_spec}),
            exit_spec_error);

  // Usage errors throw; the lab CLI maps them to exit 1.
  EXPECT_THROW(run_check({"--expect", expect}), std::invalid_argument);
  EXPECT_THROW(run_check({"--manifest", good}), std::invalid_argument);
  EXPECT_THROW(run_check({"--manifest", good, "--expect", expect,
                          "--bogus", "x"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcast::check
