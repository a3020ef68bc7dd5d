// Trace-validator corpus (check/trace_check.hpp): hand-built span
// fixtures with known violations — properly nested, partially
// overlapping, orphaned, and ring-buffer-truncated traces — plus a live
// end-to-end pass that profiles a real `mcast_lab run` and checks the
// trace it actually wrote.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/spec.hpp"
#include "check/trace_check.hpp"
#include "common/json.hpp"
#include "proc_util.hpp"

namespace mcast::check {
namespace {

struct fixture_span {
  const char* name;
  double ts_us;
  double dur_us;
  int tid;
};

// Builds a trace_event document from span tuples, the same shape
// obs::write_chrome_trace emits.
json::value make_trace(const std::vector<fixture_span>& spans,
                       std::uint64_t dropped = 0) {
  json::value events = json::value::array();
  for (const fixture_span& s : spans) {
    json::value e = json::value::object();
    e.set("name", json::value::string(s.name));
    e.set("ph", json::value::string("X"));
    e.set("ts", json::value::number(s.ts_us));
    e.set("dur", json::value::number(s.dur_us));
    e.set("pid", json::value::number(1.0));
    e.set("tid", json::value::number(static_cast<double>(s.tid)));
    events.push(std::move(e));
  }
  json::value other = json::value::object();
  other.set("dropped", json::value::number(static_cast<double>(dropped)));
  json::value doc = json::value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::value::string("ms"));
  doc.set("otherData", std::move(other));
  return doc;
}

std::vector<violation> check_trace(const std::string& spec_text,
                                   const json::value& doc) {
  return eval_trace_rules(parse_spec(spec_text, "t.expect"),
                          parse_trace(doc));
}

// A well-formed two-lane trace: experiment on lane 1 encloses everything;
// lane 2 runs two disjoint sweep_points; lane 1 nests a measure span.
const std::vector<fixture_span> k_nested = {
    {"experiment:fig2", 0.0, 1000.0, 1},
    {"monte_carlo_measure", 100.0, 200.0, 1},
    {"sweep_point", 50.0, 120.0, 2},
    {"sweep_point", 300.0, 80.0, 2},
};

TEST(check_trace, properly_nested_fixture_is_clean) {
  const auto v = check_trace(
      "span sweep_point within experiment:*\n"
      "span monte_carlo_measure within experiment:*\n"
      "span experiment:* count == 1\n"
      "span sweep_point count >= 2\n"
      "trace nested\n"
      "trace dropped == 0\n",
      make_trace(k_nested));
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].message);
}

TEST(check_trace, orphaned_span_fails_within) {
  // The second sweep_point starts inside the experiment but outlives it.
  const auto v = check_trace(
      "span sweep_point within experiment:*\n",
      make_trace({
          {"experiment:fig2", 0.0, 500.0, 1},
          {"sweep_point", 50.0, 100.0, 2},
          {"sweep_point", 450.0, 200.0, 2},
      }));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 1);
  EXPECT_EQ(v[0].rule, "span sweep_point within experiment:*");
  EXPECT_EQ(v[0].message,
            "span 'sweep_point' (tid 2, ts=450.000us, dur=200.000us) not "
            "enclosed by any span matching 'experiment:*'");
}

TEST(check_trace, span_fully_outside_any_parent_fails_within) {
  const auto v = check_trace(
      "span sweep_point within experiment:*\n",
      make_trace({{"sweep_point", 10.0, 5.0, 2}}));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("not enclosed"), std::string::npos);
}

TEST(check_trace, within_tolerates_serialization_rounding) {
  // Child end exceeds parent end by 1 rounding ulp (0.001us) — ts and dur
  // round independently at %.3f, so this must pass, not flake.
  const auto v = check_trace(
      "span child within parent\n",
      make_trace({
          {"parent", 0.0, 100.000, 1},
          {"child", 0.001, 100.000, 2},
      }));
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].message);
}

TEST(check_trace, partial_overlap_on_one_lane_fails_nested) {
  // Impossible for RAII scopes on one thread: b starts inside a but ends
  // after it. Exactly one violation, naming both spans and the lane.
  const auto v = check_trace(
      "trace nested\n",
      make_trace({
          {"a", 0.0, 100.0, 3},
          {"b", 50.0, 100.0, 3},
      }));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "trace nested");
  EXPECT_EQ(v[0].message,
            "spans overlap without nesting on lane 3: 'b' (tid 3, "
            "ts=50.000us, dur=100.000us) crosses the end of 'a' (tid 3, "
            "ts=0.000us, dur=100.000us)");
}

TEST(check_trace, overlap_across_lanes_is_fine) {
  // The same geometry split across two lanes is legal concurrency.
  const auto v = check_trace(
      "trace nested\n",
      make_trace({
          {"a", 0.0, 100.0, 1},
          {"b", 50.0, 100.0, 2},
      }));
  EXPECT_TRUE(v.empty());
}

TEST(check_trace, nested_reports_every_overlap) {
  const auto v = check_trace(
      "trace nested\n",
      make_trace({
          {"a", 0.0, 100.0, 1},
          {"b", 50.0, 100.0, 1},   // crosses a
          {"c", 0.0, 100.0, 2},
          {"d", 90.0, 100.0, 2},   // crosses c
      }));
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].message.find("lane 1"), std::string::npos);
  EXPECT_NE(v[1].message.find("lane 2"), std::string::npos);
}

TEST(check_trace, truncated_ring_fails_dropped_rule) {
  const auto v = check_trace(
      "trace dropped == 0\n"
      "trace nested\n",
      make_trace({{"experiment:fig2", 0.0, 10.0, 1}}, /*dropped=*/37));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].message, "trace dropped 37 event(s), want == 0");
  // A looser bound keeps a truncated-but-known trace green.
  EXPECT_TRUE(check_trace("trace dropped <= 100\n",
                          make_trace({}, /*dropped=*/37))
                  .empty());
}

TEST(check_trace, budget_and_count_rules) {
  const json::value doc = make_trace({
      {"sweep_point", 0.0, 1500.0, 1},
      {"sweep_point", 2000.0, 100.0, 1},
  });
  const auto v = check_trace("span sweep_point budget_ms 1\n", doc);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].message,
            "span 'sweep_point' (tid 1, ts=0.000us, dur=1500.000us) "
            "exceeds budget 1000.000us");

  const auto c = check_trace("span sweep_point count >= 3\n", doc);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].message, "span count for 'sweep_point' is 2, want >= 3");
  EXPECT_TRUE(check_trace("span sweep_point count == 2\n", doc).empty());
  EXPECT_TRUE(check_trace("span nonexistent count == 0\n", doc).empty());
}

// ---------------------------------------------------------------------------
// same_trace: per-request enclosure across lanes (args.trace_id).

struct traced_span {
  const char* name;
  double ts_us;
  double dur_us;
  int tid;
  const char* trace;  ///< args.trace_id hex string; nullptr = no args
};

json::value make_traced(const std::vector<traced_span>& spans) {
  json::value events = json::value::array();
  for (const traced_span& s : spans) {
    json::value e = json::value::object();
    e.set("name", json::value::string(s.name));
    e.set("ph", json::value::string("X"));
    e.set("ts", json::value::number(s.ts_us));
    e.set("dur", json::value::number(s.dur_us));
    e.set("pid", json::value::number(1.0));
    e.set("tid", json::value::number(static_cast<double>(s.tid)));
    if (s.trace != nullptr) {
      json::value args = json::value::object();
      args.set("trace_id", json::value::string(s.trace));
      e.set("args", std::move(args));
    }
    events.push(std::move(e));
  }
  json::value doc = json::value::object();
  doc.set("traceEvents", std::move(events));
  return doc;
}

TEST(check_trace, same_trace_modifier_parses) {
  const spec s = parse_spec("span chunk within request same_trace\n"
                            "span chunk within request\n",
                            "t.expect");
  ASSERT_EQ(s.rules.size(), 2u);
  EXPECT_TRUE(s.rules[0].same_trace);
  EXPECT_FALSE(s.rules[1].same_trace);

  // Anything after the parent glob other than `same_trace` is a typo the
  // spec parser must name, not silently accept.
  try {
    parse_spec("span chunk within request sametrace\n", "t.expect");
    FAIL() << "expected spec_error";
  } catch (const spec_error& e) {
    EXPECT_NE(std::string(e.what()).find("same_trace"), std::string::npos)
        << e.what();
  }
}

TEST(check_trace, same_trace_distinguishes_interleaved_requests) {
  // Two requests interleave: request B's chunk runs (in time) inside
  // request A's root span on another lane. Plain `within` cannot tell
  // them apart; `same_trace` pins the chunk to its own request.
  const std::vector<traced_span> interleaved = {
      {"request", 0.0, 1000.0, 1, "000000000000000a"},
      {"request", 10.0, 500.0, 2, "000000000000000b"},
      {"scatter.chunk", 50.0, 100.0, 3, "000000000000000b"},
  };
  EXPECT_TRUE(check_trace("span scatter.chunk within request\n",
                          make_traced(interleaved))
                  .empty());
  EXPECT_TRUE(check_trace("span scatter.chunk within request same_trace\n",
                          make_traced(interleaved))
                  .empty());

  // Drop request B's root: the chunk still sits inside A's span, so the
  // plain rule passes — but the same_trace rule must flag it.
  const std::vector<traced_span> orphan = {
      {"request", 0.0, 1000.0, 1, "000000000000000a"},
      {"scatter.chunk", 50.0, 100.0, 3, "000000000000000b"},
  };
  EXPECT_TRUE(check_trace("span scatter.chunk within request\n",
                          make_traced(orphan))
                  .empty());
  const auto v = check_trace("span scatter.chunk within request same_trace\n",
                             make_traced(orphan));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("with the same trace id"), std::string::npos)
      << v[0].message;
}

TEST(check_trace, same_trace_rejects_untagged_children) {
  // A same_trace rule asserts the id plumbing itself: a child span with
  // no trace id is a broken propagation path, not a pass.
  const auto v = check_trace(
      "span scatter.chunk within request same_trace\n",
      make_traced({
          {"request", 0.0, 1000.0, 1, "000000000000000a"},
          {"scatter.chunk", 50.0, 100.0, 3, nullptr},
      }));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("carries no trace id"), std::string::npos)
      << v[0].message;
}

TEST(check_trace, malformed_trace_ids_throw_with_index) {
  const auto reject = [](const char* trace, const char* fragment) {
    try {
      parse_trace(make_traced({{"a", 0.0, 1.0, 1, trace}}));
      FAIL() << "expected invalid_argument for trace_id '" << trace << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("traceEvents[0]"),
                std::string::npos)
          << e.what();
    }
  };
  reject("", "trace_id");
  reject("xyz", "trace_id");
  reject("00000000000000001", "trace_id");  // 17 chars

  // Absent args (or args without a trace_id) stay valid: untagged spans
  // are the normal case outside the service.
  EXPECT_EQ(parse_trace(make_traced({{"a", 0.0, 1.0, 1, nullptr}}))
                .spans[0]
                .trace_id,
            0u);
  EXPECT_EQ(parse_trace(make_traced({{"a", 0.0, 1.0, 1, "00ff"}}))
                .spans[0]
                .trace_id,
            0xffu);
}

TEST(check_trace, bare_array_and_non_x_phases) {
  // Bare-array form, with a metadata event that has no name/dur: valid.
  const parsed_trace t = parse_trace(json::parse(
      R"([{"ph": "M", "pid": 1},)"
      R"( {"name": "a", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 4}])"));
  EXPECT_EQ(t.events, 2u);
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.spans[0].tid, 4u);
  EXPECT_EQ(t.dropped, 0u);
}

TEST(check_trace, malformed_events_throw_with_index) {
  const auto reject = [](const char* text, const char* fragment) {
    try {
      parse_trace(json::parse(text));
      FAIL() << "expected invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  reject(R"({"traceEvents": 5})", "no 'traceEvents' array");
  reject(R"("just a string")", "neither a trace_event object nor");
  reject(R"([42])", "traceEvents[0]: event is not an object");
  reject(R"([{"name": "a"}])", "traceEvents[0]: missing or non-string 'ph'");
  reject(R"([{"ph": "X", "ts": 1, "dur": 2, "tid": 1}])",
         "traceEvents[0]: missing or non-string 'name'");
  reject(R"([{"ph": "M"}, {"name": "a", "ph": "X", "dur": 2, "tid": 1}])",
         "traceEvents[1]: missing 'ts'");
  reject(R"([{"name": "a", "ph": "X", "ts": 1, "dur": "fast", "tid": 1}])",
         "traceEvents[0]: 'dur' is not a number");
  reject(R"([{"name": "a", "ph": "X", "ts": 1, "dur": -2, "tid": 1}])",
         "traceEvents[0]: 'dur' is negative");
}

// ---------------------------------------------------------------------------
// Live end-to-end: profile a real run, then check the real artifacts.

#ifdef MCAST_LAB_BIN

std::string temp_path(const char* name) {
  return testproc::temp_path(std::string("check_trace_") + name);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  ASSERT_TRUE(f.good()) << path;
  f << text;
}

TEST(check_trace_live, real_run_passes_and_violated_spec_fails) {
  const std::string dir = temp_path("run");
  const std::string trace = dir + "/trace.json";
  const auto run = testproc::run(
      MCAST_LAB_BIN, {"run", "fig2", "--scale", "0", "--manifest-dir", dir,
                      "--profile=" + trace});
  ASSERT_EQ(run.exit_code, 0) << run.err;

  // The real trace honors the causal-nesting contract.
  const std::string good = temp_path("good.expect");
  write_file(good,
             "span sweep_point within experiment:*\n"
             "span experiment:* count >= 1\n"
             "trace nested\n"
             "trace dropped == 0\n"
             "assert hist.sched.task_ns.count == counter.sched.tasks\n");
  const auto pass = testproc::run(
      MCAST_LAB_BIN, {"check", "--manifest", dir + "/BENCH_fig2.json",
                      "--expect", good, "--trace", trace});
  EXPECT_EQ(pass.exit_code, 0) << pass.out << pass.err;
  EXPECT_NE(pass.out.find(": pass"), std::string::npos) << pass.out;

  // A spec the run cannot satisfy exits 3 and names the rule.
  const std::string bad = temp_path("bad.expect");
  write_file(bad, "span experiment:* count >= 999\n");
  const auto fail = testproc::run(
      MCAST_LAB_BIN, {"check", "--manifest", dir + "/BENCH_fig2.json",
                      "--expect", bad, "--trace", trace});
  EXPECT_EQ(fail.exit_code, 3) << fail.out << fail.err;
  EXPECT_NE(fail.out.find("span count for 'experiment:*'"),
            std::string::npos)
      << fail.out;

  // Trace rules without --trace are a spec error (exit 2), not a pass.
  const auto no_trace = testproc::run(
      MCAST_LAB_BIN, {"check", "--manifest", dir + "/BENCH_fig2.json",
                      "--expect", bad});
  EXPECT_EQ(no_trace.exit_code, 2) << no_trace.out << no_trace.err;
}

#endif  // MCAST_LAB_BIN

}  // namespace
}  // namespace mcast::check
