#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace mcast::obs {

namespace {

#define MCAST_OBS_NAME(id, name) name,
constexpr const char* k_counter_names[] = {MCAST_OBS_COUNTERS(MCAST_OBS_NAME)};
constexpr const char* k_gauge_names[] = {MCAST_OBS_GAUGES(MCAST_OBS_NAME)};
constexpr const char* k_histogram_names[] = {
    MCAST_OBS_HISTOGRAMS(MCAST_OBS_NAME)};
#undef MCAST_OBS_NAME

static_assert(std::size(k_counter_names) == counter_count);
static_assert(std::size(k_gauge_names) == gauge_count);
static_assert(std::size(k_histogram_names) == histogram_count);

}  // namespace

const char* counter_name(counter c) noexcept {
  return k_counter_names[static_cast<std::size_t>(c)];
}
const char* gauge_name(gauge g) noexcept {
  return k_gauge_names[static_cast<std::size_t>(g)];
}
const char* histogram_name(histogram h) noexcept {
  return k_histogram_names[static_cast<std::size_t>(h)];
}

namespace {

// Linear scan: the tables are small and lookups happen at spec-parse
// time, never on a hot path.
template <typename Enum, std::size_t N>
bool enum_from_name(const char* const (&names)[N], const std::string& name,
                    Enum& out) noexcept {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

bool counter_from_name(const std::string& name, counter& out) noexcept {
  return enum_from_name(k_counter_names, name, out);
}
bool gauge_from_name(const std::string& name, gauge& out) noexcept {
  return enum_from_name(k_gauge_names, name, out);
}
bool histogram_from_name(const std::string& name, histogram& out) noexcept {
  return enum_from_name(k_histogram_names, name, out);
}

double scheduler_busy_fraction(const metrics_snapshot& s) noexcept {
  const double busy = static_cast<double>(s.at(counter::sched_busy_ns));
  const double worker = static_cast<double>(s.at(counter::sched_worker_ns));
  return worker == 0.0 ? 0.0 : std::min(1.0, busy / worker);
}

std::uint64_t traversal_passes(const metrics_snapshot& s) noexcept {
  return s.at(counter::bfs_passes) + s.at(counter::dijkstra_passes);
}

void render_metrics_summary(std::ostream& out, const metrics_snapshot& s) {
  char line[160];
  out << "-- metrics"
      << (s.compiled_in ? (s.enabled ? "" : " (runtime-disabled)")
                        : " (compiled out)")
      << " --\n";
  for (std::size_t i = 0; i < counter_count; ++i) {
    if (s.counters[i] == 0) continue;
    std::snprintf(line, sizeof line, "  %-32s %20" PRIu64 "\n",
                  k_counter_names[i], s.counters[i]);
    out << line;
  }
  for (std::size_t i = 0; i < gauge_count; ++i) {
    if (s.gauges[i] == 0) continue;
    std::snprintf(line, sizeof line, "  %-32s %20" PRIu64 "  (gauge)\n",
                  k_gauge_names[i], s.gauges[i]);
    out << line;
  }
  for (std::size_t i = 0; i < histogram_count; ++i) {
    const histogram_summary& h = s.histograms[i];
    if (h.count == 0) continue;
    std::snprintf(line, sizeof line,
                  "  %-32s count=%" PRIu64 " mean=%.1f p50<=%.0f p95<=%.0f "
                  "p99<=%.0f\n",
                  k_histogram_names[i], h.count, h.mean(), h.p50, h.p95, h.p99);
    out << line;
  }
  std::snprintf(line, sizeof line,
                "  scheduler busy %.1f%%   traversal passes %" PRIu64 "\n",
                100.0 * scheduler_busy_fraction(s), traversal_passes(s));
  out << line;
}

#if !defined(MCAST_OBS_DISABLED)

namespace detail {

namespace {

// Owns every shard ever created. Shards of exited threads are *parked*
// (values intact, still aggregated) and handed to the next thread that
// starts, bounding memory under thread churn. Intentionally leaked so
// thread_local destructors running at process exit can still release.
class shard_registry {
 public:
  static shard_registry& instance() {
    static shard_registry* r = new shard_registry();  // leaked on purpose
    return *r;
  }

  shard* acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!parked_.empty()) {
      shard* s = parked_.back();
      parked_.pop_back();
      return s;
    }
    shards_.push_back(std::make_unique<shard>());
    shard* s = shards_.back().get();
    s->tid = static_cast<std::uint32_t>(shards_.size() - 1);
    return s;
  }

  void park(shard* s) {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_.push_back(s);
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& s : shards_) {
      for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
      for (auto& h : s->histograms) {
        for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
        h.count.store(0, std::memory_order_relaxed);
        h.sum.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  }

  void aggregate(metrics_snapshot& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::array<std::array<std::uint64_t, histogram_buckets>, histogram_count>
        buckets{};
    for (const auto& s : shards_) {
      for (std::size_t i = 0; i < counter_count; ++i) {
        out.counters[i] += s->counters[i].load(std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < histogram_count; ++i) {
        const shard::hist& h = s->histograms[i];
        out.histograms[i].count += h.count.load(std::memory_order_relaxed);
        out.histograms[i].sum += h.sum.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < histogram_buckets; ++b) {
          buckets[i][b] += h.buckets[b].load(std::memory_order_relaxed);
        }
      }
    }
    for (std::size_t i = 0; i < gauge_count; ++i) {
      out.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < histogram_count; ++i) {
      histogram_summary& h = out.histograms[i];
      h.p50 = bucket_quantile(buckets[i], h.count, 0.50);
      h.p95 = bucket_quantile(buckets[i], h.count, 0.95);
      h.p99 = bucket_quantile(buckets[i], h.count, 0.99);
    }
  }

  void gauge_max(std::size_t index, std::uint64_t v) {
    std::atomic<std::uint64_t>& g = gauges_[index];
    std::uint64_t cur = g.load(std::memory_order_relaxed);
    while (cur < v &&
           !g.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  shard_registry() = default;

  /// Upper bound of the bucket holding the ceil(q*count)-th sample.
  static double bucket_quantile(
      const std::array<std::uint64_t, histogram_buckets>& buckets,
      std::uint64_t count, double q) {
    if (count == 0) return 0.0;
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < histogram_buckets; ++b) {
      cum += buckets[b];
      if (cum >= target) {
        if (b == 0) return 0.0;
        if (b >= 64) return 18446744073709551615.0;  // uint64 max
        return static_cast<double>((std::uint64_t{1} << b) - 1);
      }
    }
    return 0.0;  // unreachable: cum == count >= target by the last bucket
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::vector<shard*> parked_;
  std::array<std::atomic<std::uint64_t>, gauge_count> gauges_{};
};

// Acquires a shard on a thread's first metric and parks it when the
// thread exits (values intact — they stay part of the totals).
struct shard_handle {
  shard* s = shard_registry::instance().acquire();
  ~shard_handle() { shard_registry::instance().park(s); }
};

}  // namespace

shard& local_shard() noexcept {
  thread_local shard_handle handle;
  return *handle.s;
}

}  // namespace detail

void gauge_max(gauge g, std::uint64_t v) noexcept {
  if (!enabled()) return;
  detail::shard_registry::instance().gauge_max(static_cast<std::size_t>(g), v);
}

void reset_metrics() noexcept {
  detail::shard_registry::instance().reset();
}

metrics_snapshot snapshot() {
  metrics_snapshot out;
  out.compiled_in = true;
  out.enabled = enabled();
  detail::shard_registry::instance().aggregate(out);
  return out;
}

#endif  // !MCAST_OBS_DISABLED

}  // namespace mcast::obs
