// mcast_obs — low-overhead metrics for the traversal/cache/scheduler stack.
//
// The Monte-Carlo sweeps behind every figure are fast (workspace reuse,
// parallel scheduler) but were opaque: BENCH_<id>.json recorded
// wall/CPU time and nothing about *why* a run was fast or slow. This
// registry closes that gap with three primitive kinds:
//
//  * counters    — monotonic uint64 sums ("BFS passes", "cache misses");
//  * gauges      — max-merged levels ("scheduler workers granted");
//  * histograms  — fixed log2-bucket distributions of latencies/sizes,
//                  summarized as count/sum/p50/p95/p99.
//
// Design rules, in priority order:
//
//  1. Never perturb results. Hooks observe; they cannot change a single
//     output byte (locked down by tests/test_manifest_metrics.cpp).
//  2. Stay off the contended path. Every mutation lands in a per-thread
//     *shard* — an aligned block of relaxed atomics owned by one thread —
//     so the traversal inner loop never touches a shared cache line.
//     Aggregation (snapshot) walks all shards under the registry lock;
//     it is meant for run boundaries, not inner loops.
//  3. Be removable. Compiling with -DMCAST_OBS_DISABLED (CMake option of
//     the same name) turns every hook into an empty inline function so
//     bench/micro_core can prove the instrumented hot path is within
//     noise of the uninstrumented one. A runtime switch (set_enabled)
//     approximates the same A/B inside one binary.
//
// Shards are pooled: when a worker thread exits, its shard is parked (its
// values keep contributing to totals — counters are cumulative since the
// last reset) and the next thread to start reuses it, so thread churn
// across many runs cannot grow memory without bound.
//
// See docs/observability.md for the full tour and overhead methodology.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mcast::obs {

// X-macros keep the enums and the dotted metric names in lockstep; the
// name is what manifests, the summary table and tests key on.
#define MCAST_OBS_COUNTERS(X)                                    \
  X(bfs_passes, "traversal.bfs_passes")                          \
  X(dijkstra_passes, "traversal.dijkstra_passes")                \
  X(nodes_visited, "traversal.nodes_visited")                    \
  X(edges_scanned, "traversal.edges_scanned")                    \
  X(workspace_grows, "workspace.grows")                          \
  X(workspace_reuses, "workspace.reuses")                        \
  /* Never incremented; perfbench/src/{lab,svc}.cpp still read them. */ \
  X(spt_cache_hits, "spt_cache.hits")                            \
  X(spt_cache_misses, "spt_cache.misses")                        \
  X(repair_trees, "repair.trees_repaired")                       \
  X(repair_unaffected, "repair.receivers_unaffected")            \
  X(repair_rerouted, "repair.receivers_rerouted")                \
  X(repair_partitioned, "repair.receivers_partitioned")          \
  X(sim_events, "sim.events_processed")                          \
  X(sim_degraded_transitions, "sim.degraded_transitions")        \
  X(mc_source_tasks, "mc.source_tasks")                          \
  X(sched_tasks, "sched.tasks")                                  \
  X(sched_busy_ns, "sched.busy_ns")                              \
  X(sched_worker_ns, "sched.worker_ns")                          \
  X(sched_splice_wait_ns, "sched.splice_wait_ns")                \
  X(topo_cache_hits, "topo_cache.hits")                          \
  X(topo_cache_misses, "topo_cache.misses")                      \
  X(topo_cache_evictions, "topo_cache.evictions")                \
  X(svc_connections_accepted, "svc.connections_accepted")        \
  X(svc_connections_rejected, "svc.connections_rejected")        \
  X(svc_requests, "svc.requests")                                \
  X(svc_responses_error, "svc.responses_error")                  \
  X(svc_lines_oversized, "svc.lines_oversized")                  \
  X(svc_deadline_exceeded, "svc.deadline_exceeded")              \
  X(svc_drain_forced, "svc.drain_forced_closes")                 \
  X(svc_shed_degraded, "svc.shed.degraded")                      \
  X(svc_shed_refused, "svc.shed.refused")                        \
  X(svc_chaos_drops, "svc.chaos.drops")                          \
  X(svc_chaos_resets, "svc.chaos.resets")                        \
  X(svc_chaos_delays, "svc.chaos.delays")                        \
  X(svc_chaos_truncates, "svc.chaos.truncates")                  \
  X(svc_chaos_stalls, "svc.chaos.stalls")                        \
  X(svc_batch_requests, "svc.batch.requests")                    \
  X(svc_batch_subops, "svc.batch.subops_dispatched")             \
  X(svc_batch_spliced, "svc.batch.subops_spliced")               \
  X(retry_attempts, "retry.attempts")                            \
  X(retry_retries, "retry.retries")                              \
  X(retry_successes, "retry.successes")                          \
  X(retry_exhausted, "retry.exhausted")                          \
  X(svc_access_records, "svc.access.records")                    \
  X(svc_access_slow, "svc.access.slow")                          \
  X(group_created, "group.created")                              \
  X(group_removed, "group.removed")                              \
  X(group_joins, "group.joins")                                  \
  X(group_leaves, "group.leaves")                                \
  X(group_links_grafted, "group.links_grafted")                  \
  X(group_links_pruned, "group.links_pruned")                    \
  X(group_rebases, "group.rebases")                              \
  X(svc_group_creates, "svc.group.creates")                      \
  X(svc_group_joins, "svc.group.joins")                          \
  X(svc_group_leaves, "svc.group.leaves")                        \
  X(svc_group_stats, "svc.group.stats_reads")                    \
  X(svc_group_lists, "svc.group.lists")

#define MCAST_OBS_GAUGES(X)                  \
  X(sched_workers, "sched.workers")          \
  X(topo_cache_peak_entries, "topo_cache.peak_entries")  \
  X(svc_queue_depth_peak, "svc.queue_depth_peak")         \
  X(svc_inflight_peak, "svc.inflight_peak")               \
  X(group_peak_groups, "group.peak_groups")                \
  X(group_peak_members, "group.peak_members")

#define MCAST_OBS_HISTOGRAMS(X)                          \
  X(visited_per_pass, "traversal.visited_per_pass")      \
  X(repair_latency_ns, "repair.latency_ns")              \
  X(sched_task_ns, "sched.task_ns")                      \
  X(sched_tasks_per_worker, "sched.tasks_per_worker")    \
  X(topo_cache_build_ns, "topo_cache.build_ns")          \
  X(svc_request_ns, "svc.request_ns")                    \
  X(svc_queue_wait_ns, "svc.queue_wait_ns")              \
  X(retry_backoff_ms, "retry.backoff_ms")                \
  X(svc_op_lmhat_ns, "svc.op.lmhat_ns")                  \
  X(svc_op_lm_estimate_ns, "svc.op.lm_estimate_ns")      \
  X(svc_op_reachability_ns, "svc.op.reachability_ns")    \
  X(svc_op_batch_ns, "svc.op.batch_ns")                  \
  X(svc_op_admin_ns, "svc.op.admin_ns")                  \
  X(svc_serialize_ns, "svc.serialize_ns")                \
  X(svc_write_ns, "svc.write_ns")                        \
  X(group_graft_links, "group.graft_links_per_join")     \
  X(group_prune_links, "group.prune_links_per_leave")    \
  X(svc_op_group_ns, "svc.op.group_ns")

#define MCAST_OBS_ENUM(id, name) id,
enum class counter : std::uint16_t { MCAST_OBS_COUNTERS(MCAST_OBS_ENUM) };
enum class gauge : std::uint16_t { MCAST_OBS_GAUGES(MCAST_OBS_ENUM) };
enum class histogram : std::uint16_t { MCAST_OBS_HISTOGRAMS(MCAST_OBS_ENUM) };
#undef MCAST_OBS_ENUM

#define MCAST_OBS_COUNT(id, name) +1
inline constexpr std::size_t counter_count = 0 MCAST_OBS_COUNTERS(MCAST_OBS_COUNT);
inline constexpr std::size_t gauge_count = 0 MCAST_OBS_GAUGES(MCAST_OBS_COUNT);
inline constexpr std::size_t histogram_count =
    0 MCAST_OBS_HISTOGRAMS(MCAST_OBS_COUNT);
#undef MCAST_OBS_COUNT

/// Dotted metric name ("traversal.bfs_passes"); stable across runs and builds.
const char* counter_name(counter c) noexcept;
const char* gauge_name(gauge g) noexcept;
const char* histogram_name(histogram h) noexcept;

/// Reverse lookups by dotted name; return false when the name is not a
/// registered metric. The name tables compile even under
/// MCAST_OBS_DISABLED, so spec validation (src/check) works identically
/// in a no-obs build.
bool counter_from_name(const std::string& name, counter& out) noexcept;
bool gauge_from_name(const std::string& name, gauge& out) noexcept;
bool histogram_from_name(const std::string& name, histogram& out) noexcept;

/// Histogram values are bucketed by bit width: bucket 0 holds the value 0,
/// bucket b >= 1 holds [2^(b-1), 2^b - 1] (the last bucket tops out at
/// uint64 max). 65 buckets cover all of uint64.
inline constexpr std::size_t histogram_buckets = 65;

/// Percentiles are bucket upper bounds: quantile(q) returns the largest
/// value the bucket containing the ceil(q*count)-th sample could hold —
/// an over-estimate by at most 2x, which is plenty to read a latency
/// distribution and cheap enough to keep the hot path branch-free.
struct histogram_summary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Point-in-time aggregate over every shard (live, parked, and retired).
/// Plain data: fixed arrays indexed by the enums above, so a snapshot is
/// always fully populated and serializes to a deterministic schema.
struct metrics_snapshot {
  bool compiled_in = false;  ///< false when built with MCAST_OBS_DISABLED
  bool enabled = false;      ///< runtime switch state at snapshot time
  std::array<std::uint64_t, counter_count> counters{};
  std::array<std::uint64_t, gauge_count> gauges{};
  std::array<histogram_summary, histogram_count> histograms{};

  std::uint64_t at(counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t at(gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  const histogram_summary& at(histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }
};

// Derived headline numbers (0 when the underlying counters are all zero).
double scheduler_busy_fraction(const metrics_snapshot& s) noexcept;
std::uint64_t traversal_passes(const metrics_snapshot& s) noexcept;

/// Human-readable table of every non-zero metric plus the derived rates;
/// what `mcast_lab run --metrics-summary` prints to stderr.
void render_metrics_summary(std::ostream& out, const metrics_snapshot& s);

#if defined(MCAST_OBS_DISABLED)

inline constexpr bool compiled_in = false;

// Every hook is an empty inline function: the compiler deletes the call
// and any argument computation feeding only it.
inline void add(counter, std::uint64_t = 1) noexcept {}
inline void gauge_max(gauge, std::uint64_t) noexcept {}
inline void record(histogram, std::uint64_t) noexcept {}
inline void set_enabled(bool) noexcept {}
inline bool enabled() noexcept { return false; }
inline void reset_metrics() noexcept {}
inline metrics_snapshot snapshot() { return metrics_snapshot{}; }

#else

inline constexpr bool compiled_in = true;

namespace detail {

// One thread's private metric block. Relaxed atomics on a thread-owned
// cache line cost the same as plain adds but keep cross-thread reads
// (snapshot, TSan) well-defined.
struct alignas(64) shard {
  std::array<std::atomic<std::uint64_t>, counter_count> counters{};
  struct hist {
    std::array<std::atomic<std::uint64_t>, histogram_buckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<hist, histogram_count> histograms{};
  std::uint32_t tid = 0;  ///< stable shard id; doubles as the trace tid
};

/// The calling thread's shard (acquired from the pool on first use,
/// parked again when the thread exits).
shard& local_shard() noexcept;

inline std::atomic<bool> g_enabled{true};

}  // namespace detail

/// Runtime kill switch (approximates MCAST_OBS_DISABLED inside one
/// binary; bench/micro_core uses it for the A/B overhead pair). Hooks
/// check it with one relaxed load.
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Adds `n` to a counter in the calling thread's shard.
inline void add(counter c, std::uint64_t n = 1) noexcept {
  if (!enabled()) return;
  detail::local_shard().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Raises a gauge to at least `v` (max-merge, so aggregation is
/// deterministic no matter which thread observed the peak).
void gauge_max(gauge g, std::uint64_t v) noexcept;

/// Records one sample into a histogram in the calling thread's shard.
inline void record(histogram h, std::uint64_t value) noexcept {
  if (!enabled()) return;
  const std::size_t b =
      value == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(value));
  auto& hist = detail::local_shard().histograms[static_cast<std::size_t>(h)];
  hist.buckets[b].fetch_add(1, std::memory_order_relaxed);
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum.fetch_add(value, std::memory_order_relaxed);
}

/// Zeroes every counter/gauge/histogram in every shard. Call at a run
/// boundary when no instrumented worker threads are live (the engine
/// resets between experiments; concurrent mutators would leak increments
/// across the boundary, not corrupt memory).
void reset_metrics() noexcept;

/// Aggregates all shards. Safe to call any time; values racing with live
/// writers land in whichever side of the snapshot the relaxed loads see.
metrics_snapshot snapshot();

#endif  // MCAST_OBS_DISABLED

}  // namespace mcast::obs
