// Observability registry + tracer checks: counter/gauge/histogram
// correctness, log2-bucket percentile semantics, the runtime kill switch,
// span ring-buffer wraparound, and determinism of the multi-thread merge.
//
// Snapshots are only taken after worker threads have joined, so even the
// multi-thread tests are exact (no torn reads of relaxed counters) and
// TSan-clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "obs/trace.hpp"

namespace mcast::obs {
namespace {

#if !defined(MCAST_OBS_DISABLED)

class obs_test : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_metrics();
    trace_disable();
    trace_clear();
  }
  void TearDown() override {
    set_enabled(true);
    reset_metrics();
    trace_disable();
    trace_clear();
  }
};

std::uint64_t counter_of(const metrics_snapshot& s, counter c) {
  return s.counters[static_cast<std::size_t>(c)];
}

TEST_F(obs_test, counters_accumulate_and_reset) {
  add(counter::bfs_passes);
  add(counter::bfs_passes, 4);
  add(counter::edges_scanned, 1000);
  metrics_snapshot s = snapshot();
  EXPECT_TRUE(s.compiled_in);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(counter_of(s, counter::bfs_passes), 5u);
  EXPECT_EQ(counter_of(s, counter::edges_scanned), 1000u);
  EXPECT_EQ(counter_of(s, counter::dijkstra_passes), 0u);

  reset_metrics();
  s = snapshot();
  EXPECT_EQ(counter_of(s, counter::bfs_passes), 0u);
  EXPECT_EQ(counter_of(s, counter::edges_scanned), 0u);
}

TEST_F(obs_test, runtime_kill_switch_drops_updates) {
  add(counter::bfs_passes);
  set_enabled(false);
  EXPECT_FALSE(enabled());
  add(counter::bfs_passes);
  record(histogram::visited_per_pass, 10);
  gauge_max(gauge::sched_workers, 8);
  set_enabled(true);
  const metrics_snapshot s = snapshot();
  EXPECT_EQ(counter_of(s, counter::bfs_passes), 1u);
  EXPECT_EQ(s.at(histogram::visited_per_pass).count, 0u);
  EXPECT_EQ(s.gauges[static_cast<std::size_t>(gauge::sched_workers)], 0u);
}

TEST_F(obs_test, gauges_keep_the_maximum) {
  gauge_max(gauge::sched_workers, 3);
  gauge_max(gauge::sched_workers, 8);
  gauge_max(gauge::sched_workers, 5);
  const metrics_snapshot s = snapshot();
  EXPECT_EQ(s.gauges[static_cast<std::size_t>(gauge::sched_workers)], 8u);
}

TEST_F(obs_test, metric_names_are_wired) {
  EXPECT_STREQ(counter_name(counter::bfs_passes), "traversal.bfs_passes");
  EXPECT_STREQ(gauge_name(gauge::sched_workers), "sched.workers");
  EXPECT_STREQ(histogram_name(histogram::repair_latency_ns),
               "repair.latency_ns");
}

TEST_F(obs_test, histogram_count_sum_mean) {
  for (std::uint64_t v : {1u, 2u, 3u, 4u}) {
    record(histogram::visited_per_pass, v);
  }
  const histogram_summary h = snapshot().at(histogram::visited_per_pass);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

// Quantiles come from log2 buckets: the reported value is the inclusive
// upper bound 2^b - 1 of the bucket holding the ceil(q*count)-th sample,
// so it over-estimates by at most 2x and is exact for zeros and ones.
TEST_F(obs_test, histogram_percentiles_are_bucket_upper_bounds) {
  // 98 samples of 1, one of 100, one of 1000.
  for (int i = 0; i < 98; ++i) record(histogram::repair_latency_ns, 1);
  record(histogram::repair_latency_ns, 100);   // bucket [64, 127]
  record(histogram::repair_latency_ns, 1000);  // bucket [512, 1023]
  const histogram_summary h = snapshot().at(histogram::repair_latency_ns);
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.p50, 1.0);
  EXPECT_DOUBLE_EQ(h.p95, 1.0);
  EXPECT_DOUBLE_EQ(h.p99, 127.0);
}

TEST_F(obs_test, histogram_handles_zero_and_huge_values) {
  record(histogram::sched_task_ns, 0);
  record(histogram::sched_task_ns, ~std::uint64_t{0});
  const histogram_summary h = snapshot().at(histogram::sched_task_ns);
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.p50, 0.0);
  // The top bucket's upper bound is 2^64 - 1.
  EXPECT_DOUBLE_EQ(h.p99,
                   static_cast<double>(~std::uint64_t{0}));
}

TEST_F(obs_test, empty_histograms_serialize_as_finite_zeroes) {
  // Regression: an untouched histogram must report mean/percentiles as
  // plain 0, never NaN/Inf — NaN is not JSON, so one empty histogram
  // would make the whole metrics document unparseable.
  const histogram_summary empty{};
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  const metrics_snapshot s = snapshot();  // nothing recorded anywhere
  const json::value doc = metrics_to_json(s);
  const json::value* hists = doc.get("histograms");
  ASSERT_NE(hists, nullptr);
  const json::value* h = hists->get("repair.latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->get("count")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(h->get("mean")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(h->get("p50")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(h->get("p99")->as_number(), 0.0);

  // The serialized document must round-trip: a NaN anywhere would dump
  // as a token json::parse rejects.
  EXPECT_NO_THROW(json::parse(json::dump_compact(doc)));
}

TEST_F(obs_test, multi_thread_counters_merge_exactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        add(counter::nodes_visited);
        record(histogram::visited_per_pass, i % 7);
      }
      gauge_max(gauge::sched_workers, static_cast<std::uint64_t>(t + 1));
    });
  }
  for (std::thread& t : pool) t.join();
  const metrics_snapshot s = snapshot();
  EXPECT_EQ(counter_of(s, counter::nodes_visited), kThreads * kPerThread);
  EXPECT_EQ(s.at(histogram::visited_per_pass).count, kThreads * kPerThread);
  EXPECT_EQ(s.gauges[static_cast<std::size_t>(gauge::sched_workers)],
            static_cast<std::uint64_t>(kThreads));
}

TEST_F(obs_test, derived_rates) {
  add(counter::sched_busy_ns, 80);
  add(counter::sched_worker_ns, 100);
  add(counter::bfs_passes, 2);
  add(counter::dijkstra_passes, 1);
  const metrics_snapshot s = snapshot();
  EXPECT_DOUBLE_EQ(scheduler_busy_fraction(s), 0.8);
  EXPECT_EQ(traversal_passes(s), 3u);
}

TEST_F(obs_test, summary_renders_nonzero_metrics) {
  add(counter::bfs_passes, 7);
  add(counter::sched_busy_ns, 9);
  add(counter::sched_worker_ns, 10);
  std::ostringstream out;
  render_metrics_summary(out, snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("traversal.bfs_passes"), std::string::npos);
  EXPECT_NE(text.find("scheduler busy 90.0%"), std::string::npos);
  // Zero counters stay out of the table.
  EXPECT_EQ(text.find("repair.trees"), std::string::npos);
}

TEST_F(obs_test, spans_record_nested_scopes) {
  trace_enable();
  {
    MCAST_OBS_SPAN("outer");
    MCAST_OBS_SPAN(std::string("inner"));
  }
  trace_disable();
  const trace_dump dump = trace_collect();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.dropped, 0u);
  const trace_event* outer = nullptr;
  const trace_event* inner = nullptr;
  for (const trace_event& e : dump.events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner scope is contained in the outer one; both land on the same
  // lane (the thread's shard id).
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->start_ns + outer->dur_ns, inner->start_ns + inner->dur_ns);
}

TEST_F(obs_test, spans_inherit_the_installed_trace_context) {
  trace_enable();
  {
    trace_scope scope(trace_context{0xabcull, 0});
    MCAST_OBS_SPAN("outer");
    MCAST_OBS_SPAN("inner");  // same scope: chains under outer
  }
  {
    MCAST_OBS_SPAN("untagged");  // no context: the id triple stays 0
  }
  trace_disable();
  const trace_dump dump = trace_collect();
  const trace_event* outer = nullptr;
  const trace_event* inner = nullptr;
  const trace_event* untagged = nullptr;
  for (const trace_event& e : dump.events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "untagged") untagged = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(untagged, nullptr);
  EXPECT_EQ(outer->trace_id, 0xabcull);
  EXPECT_EQ(inner->trace_id, 0xabcull);
  EXPECT_NE(outer->span_id, 0u);
  EXPECT_EQ(outer->parent_id, 0u);  // root of its request
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(untagged->trace_id, 0u);
  EXPECT_EQ(untagged->span_id, 0u);
}

TEST_F(obs_test, context_survives_while_tracing_is_off) {
  // The access log attributes records through current_trace() even when
  // the span rings are not running, so contexts must work regardless.
  EXPECT_EQ(current_trace().trace_id, 0u);
  {
    trace_scope scope(trace_context{77, 5});
    EXPECT_EQ(current_trace().trace_id, 77u);
    EXPECT_EQ(current_trace().parent_span, 5u);
  }
  EXPECT_EQ(current_trace().trace_id, 0u);
}

TEST_F(obs_test, chrome_trace_emits_id_args_and_cross_lane_flows) {
  trace_dump dump;
  // A two-lane trace: the root on lane 1, a child chunk on lane 2.
  dump.events.push_back({"request", 1000, 5000, 1, 0xabcull, 0x1ull, 0});
  dump.events.push_back(
      {"scatter.chunk", 2000, 1000, 2, 0xabcull, 0x2ull, 0x1ull});
  std::ostringstream out;
  write_chrome_trace(out, dump);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"trace_id\": \"0000000000000abc\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"parent\": \"0000000000000001\""), std::string::npos)
      << text;
  // The trace crosses lanes, so flow events bind them in the viewer.
  EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos) << text;

  // A single-lane trace needs no flows.
  trace_dump one_lane;
  one_lane.events.push_back({"request", 1000, 5000, 1, 0xb0bull, 0x3ull, 0});
  std::ostringstream out2;
  write_chrome_trace(out2, one_lane);
  EXPECT_EQ(out2.str().find("\"ph\": \"s\""), std::string::npos);
}

TEST_F(obs_test, spans_cost_nothing_while_disabled) {
  {
    MCAST_OBS_SPAN("ignored");
  }
  trace_enable();
  trace_disable();
  EXPECT_TRUE(trace_collect().events.empty());
}

TEST_F(obs_test, ring_buffer_wraps_and_counts_drops) {
  trace_enable(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    span s(std::move(name));
  }
  trace_disable();
  const trace_dump dump = trace_collect();
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.dropped, 6u);
  // The survivors are the newest four, oldest-first.
  EXPECT_EQ(dump.events[0].name, "s6");
  EXPECT_EQ(dump.events[3].name, "s9");
}

TEST_F(obs_test, multi_thread_trace_merge_is_deterministic) {
  trace_enable();
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        std::string name = "t";
        name += std::to_string(t);
        name += '.';
        name += std::to_string(i);
        span s(std::move(name));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  trace_disable();
  const trace_dump a = trace_collect();
  const trace_dump b = trace_collect();
  ASSERT_EQ(a.events.size(), 200u);
  ASSERT_EQ(b.events.size(), 200u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].name, b.events[i].name);
    EXPECT_EQ(a.events[i].start_ns, b.events[i].start_ns);
    EXPECT_EQ(a.events[i].tid, b.events[i].tid);
  }
  // Ordered by (start_ns, tid, name).
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].start_ns, a.events[i].start_ns);
  }
}

TEST_F(obs_test, chrome_trace_json_shape) {
  trace_dump dump;
  dump.events.push_back({"alpha \"quoted\"", 1000, 2000, 1});
  dump.events.push_back({"beta", 2500, 500, 2});
  dump.dropped = 3;
  std::ostringstream out;
  write_chrome_trace(out, dump);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("alpha \\\"quoted\\\""), std::string::npos);
  // Timestamps are rebased to the earliest event (1000ns -> 0us).
  EXPECT_NE(text.find("\"ts\": 0.000"), std::string::npos);
  EXPECT_NE(text.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\": 3"), std::string::npos);
}

#else  // MCAST_OBS_DISABLED

TEST(obs_disabled, everything_is_a_no_op) {
  add(counter::bfs_passes, 100);
  record(histogram::visited_per_pass, 10);
  gauge_max(gauge::sched_workers, 4);
  const metrics_snapshot s = snapshot();
  EXPECT_FALSE(s.compiled_in);
  for (std::uint64_t c : s.counters) EXPECT_EQ(c, 0u);
  trace_enable();
  {
    MCAST_OBS_SPAN("nothing");
  }
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(trace_collect().events.empty());
}

#endif  // MCAST_OBS_DISABLED

}  // namespace
}  // namespace mcast::obs
