// Strict-parse corpus for the expectation spec grammar (check/spec.hpp),
// in the test_lab_params tradition: every malformed directive must be a
// loud spec_error carrying file:line:col plus a caret-rendered copy of
// the offending line — never a silently skipped rule.
#include <gtest/gtest.h>

#include <string>

#include "check/spec.hpp"

namespace mcast::check {
namespace {

spec parse(const std::string& text) { return parse_spec(text, "t.expect"); }

// Asserts the parse fails and the message carries the expected location
// tag, a caret line, and the expected fragment.
void expect_reject(const std::string& text, const std::string& where,
                   const std::string& fragment) {
  try {
    parse(text);
    FAIL() << "expected spec_error for: " << text;
  } catch (const spec_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(where), std::string::npos)
        << "missing location '" << where << "' in:\n" << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos)
        << "missing fragment '" << fragment << "' in:\n" << msg;
  }
}

TEST(check_spec, accepts_every_directive_kind) {
  const spec s = parse(
      "# comment\n"
      "\n"
      "assert counter.traversal.bfs_passes + counter.mc.source_tasks >= 1\n"
      "assert hist.sched.task_ns.count == counter.sched.tasks\n"
      "range derived.scheduler_busy_fraction 0 1\n"
      "present group service\n"
      "absent group nonexistent\n"
      "present fit SvcLoad\n"
      "span sweep_point within experiment:*\n"
      "span experiment:* budget_ms 5000\n"
      "span sweep_point count >= 1\n"
      "trace dropped == 0\n"
      "trace nested\n"
      "gate fit.SvcLoad.qps higher_better 0.5\n"
      "gate fit.SvcLoad.p99_ms lower_better 2\n");
  EXPECT_EQ(s.rules.size(), 13u);
  EXPECT_TRUE(s.needs_trace());
  EXPECT_TRUE(s.needs_baseline());
  EXPECT_EQ(s.rules[0].kind, rule_kind::assert_cmp);
  EXPECT_EQ(s.rules[0].line, 3);
  EXPECT_EQ(s.rules[0].op, cmp_op::ge);
  ASSERT_EQ(s.rules[0].lhs.terms.size(), 2u);
  EXPECT_EQ(s.rules[0].lhs.terms[1].metric, "counter.mc.source_tasks");
  ASSERT_EQ(s.rules[0].rhs.terms.size(), 1u);
  EXPECT_TRUE(s.rules[0].rhs.terms[0].is_literal);
  EXPECT_EQ(s.rules[12].kind, rule_kind::gate);
  EXPECT_FALSE(s.rules[12].higher_better);
  EXPECT_DOUBLE_EQ(s.rules[12].number, 2.0);
}

TEST(check_spec, manifest_only_spec_needs_nothing_extra) {
  const spec s = parse("assert threads >= 1\n");
  EXPECT_FALSE(s.needs_trace());
  EXPECT_FALSE(s.needs_baseline());
}

TEST(check_spec, subtraction_and_signs) {
  const spec s = parse(
      "assert counter.svc.requests - counter.svc.responses_error >= 0\n");
  ASSERT_EQ(s.rules[0].lhs.terms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.rules[0].lhs.terms[1].sign, -1.0);
}

TEST(check_spec, rejects_empty_and_comment_only_files) {
  expect_reject("", "t.expect", "no rules");
  expect_reject("# only a comment\n\n", "t.expect", "no rules");
}

TEST(check_spec, rejects_unknown_metric_with_caret) {
  // Column 8: "assert " is 7 characters, the bad metric starts at 8.
  expect_reject("assert counter.traversal.bfs_passez >= 0\n", "t.expect:1:8",
                "unknown metric 'counter.traversal.bfs_passez'");
  expect_reject("assert gauge.traversal.bfs_passes >= 0\n", "t.expect:1:8",
                "unknown metric");
  expect_reject("range bogus_scalar 0 1\n", "t.expect:1:7",
                "unknown metric 'bogus_scalar'");
  expect_reject("assert derived.qps >= 0\n", ":1:8", "unknown metric");
}

TEST(check_spec, caret_line_points_at_the_offender) {
  try {
    parse("assert counter.traversal.bfs_passez >= 0\n");
    FAIL();
  } catch (const spec_error& e) {
    // The caret sits under column 8 (two-space indent + 7 spaces).
    EXPECT_NE(std::string(e.what()).find("\n         ^"), std::string::npos)
        << e.what();
  }
}

TEST(check_spec, rejects_bad_histogram_paths) {
  expect_reject("assert hist.sched.task_ns.p42 >= 0\n", ":1:8",
                "unknown histogram field 'p42'");
  expect_reject("assert hist.sched.task_ns >= 0\n", ":1:8",
                "unknown histogram field");
  expect_reject("assert hist.nope.count >= 0\n", ":1:8", "unknown metric");
}

TEST(check_spec, rejects_bad_fit_shape) {
  expect_reject("gate fit.SvcLoad higher_better 0.5\n", ":1:6",
                "fit metric needs the form fit.<label>.<key>");
}

TEST(check_spec, rejects_bad_operator) {
  expect_reject("assert threads => 1\n", ":1:16",
                "expected '+', '-' or a comparison operator, got '=>'");
  expect_reject("assert threads = 1\n", ":1:16",
                "expected '+', '-' or a comparison operator, got '='");
  expect_reject("span sweep_point count ~ 3\n", ":1:24", "bad operator '~'");
}

TEST(check_spec, rejects_non_numeric_values) {
  expect_reject("gate fit.SvcLoad.qps higher_better fast\n", ":1:36",
                "relative tolerance must be a finite number, got 'fast'");
  expect_reject("gate fit.SvcLoad.qps higher_better -0.5\n", ":1:36",
                "relative tolerance must be >= 0");
  expect_reject("range threads 0 lots\n", ":1:17",
                "range high bound must be a finite number");
  expect_reject("range threads 5 1\n", ":1:15", "range bounds are inverted");
  expect_reject("span x budget_ms soon\n", ":1:18",
                "span budget (ms) must be a finite number");
  expect_reject("trace dropped == inf\n", ":1:18",
                "dropped-event count must be a finite number");
}

TEST(check_spec, rejects_malformed_directives) {
  expect_reject("frobnicate x\n", ":1:1", "unknown directive 'frobnicate'");
  expect_reject("assert threads >=\n", "t.expect:1:18",
                "expected a metric or number on the right side");
  expect_reject("assert >= 1\n", ":1:8",
                "expected a metric or number on the left side");
  expect_reject("present flavor x\n", ":1:9", "expected 'group' or 'fit'");
  expect_reject("absent fit SvcLoad\n", ":1:8", "expected 'group'");
  expect_reject("span sweep_point inside experiment:*\n", ":1:18",
                "expected 'within', 'budget_ms' or 'count'");
  expect_reject("trace lost == 0\n", ":1:7", "expected 'dropped' or 'nested'");
  expect_reject("gate fit.A.b sideways 0.5\n", ":1:14",
                "expected 'higher_better' or 'lower_better'");
  expect_reject("assert threads >= 1 extra\n", ":1:21",
                "expected '+', '-' or a comparison operator, got 'extra'");
  expect_reject("trace nested please\n", ":1:14",
                "unexpected trailing token 'please'");
}

TEST(check_spec, error_location_counts_lines) {
  expect_reject("assert threads >= 1\n\n# fine\nrange threads 1 0\n",
                "t.expect:4:15", "inverted");
}

TEST(check_spec, json_form_round_trip) {
  const spec s = parse(
      "{\"rules\": [\"assert threads >= 1\","
      " \"gate fit.SvcLoad.qps higher_better 0.5\"]}");
  EXPECT_EQ(s.rules.size(), 2u);
  EXPECT_EQ(s.rules[1].kind, rule_kind::gate);
}

TEST(check_spec, json_form_rejects_garbage) {
  expect_reject("{\"rules\": 3}", "t.expect", "needs a 'rules' array");
  expect_reject("{\"rules\": [], \"extra\": 1}", "t.expect",
                "unknown key 'extra'");
  expect_reject("{\"rules\": [42]}", "t.expect", "rules[0] is not a string");
  expect_reject("{\"rules\": [\"assert counter.nope >= 0\"]}",
                "t.expect:rules[0]:1:8", "unknown metric");
  expect_reject("{broken", "t.expect", "bad JSON spec");
}

TEST(check_spec, unreadable_file_is_a_spec_error) {
  EXPECT_THROW(parse_spec_file("/nonexistent/path/x.expect"), spec_error);
}

TEST(check_spec, glob_matching) {
  EXPECT_TRUE(glob_match("experiment:*", "experiment:fig2"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("sweep_point", "sweep_point"));
  EXPECT_TRUE(glob_match("a*c*e", "abcde"));
  EXPECT_FALSE(glob_match("experiment:*", "sweep_point"));
  EXPECT_FALSE(glob_match("a*c", "ab"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_TRUE(glob_match("*", ""));
}

TEST(check_spec, metric_path_validation) {
  EXPECT_EQ(validate_metric_path("counter.traversal.bfs_passes"), "");
  EXPECT_EQ(validate_metric_path("gauge.sched.workers"), "");
  EXPECT_EQ(validate_metric_path("hist.svc.request_ns.p99"), "");
  EXPECT_EQ(validate_metric_path("derived.traversal_passes"), "");
  EXPECT_EQ(validate_metric_path("fit.SvcLoad.qps"), "");
  EXPECT_EQ(validate_metric_path("wall_seconds"), "");
  EXPECT_NE(validate_metric_path("counter.nope"), "");
  EXPECT_NE(validate_metric_path("fit.only_label"), "");
  EXPECT_NE(validate_metric_path("threads.extra"), "");
}

}  // namespace
}  // namespace mcast::check
