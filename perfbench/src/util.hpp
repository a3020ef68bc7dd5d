// Shared pieces of perfbench: clocks, order statistics, the
// in-memory span log of the traced run, response digests, and the result
// every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// CPU seconds consumed by the calling thread.
double thread_cpu_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Seconds from starting this binary again with `args` (argv[0] first)
/// until it reports ready through signal_ready(). Its teardown is not
/// timed, but it is waited for; throws if the child cannot start, never
/// reports ready, or exits non-zero.
double time_until_ready(const std::vector<std::string>& args);

/// In a child started by time_until_ready: tells the parent that set-up is
/// done. Does nothing in a process started otherwise.
void signal_ready();

/// Stands in for the latency of a request that failed or never answered:
/// it misses every latency limit.
inline constexpr double k_missed = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// 64-bit FNV-1a over `data` — the digest stored for lab outputs.
std::uint64_t fnv1a(std::string_view data);
std::string hex64(std::uint64_t v);

/// The digest stored for `workload` and `slot` in a reference file of
/// "<workload> <slot> <digest>" lines; "" when there is none.
std::string reference_digest(const std::string& path, const std::string& workload,
                             std::uint64_t slot);

// --- traced run -------------------------------------------------------

/// One timed call from the benchmark into the program: name, start, end,
/// the span that caused it (-1 for none) and a request id shared by every
/// span of one request (0 when the span belongs to no request).
struct span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t request;
};

/// Spans kept in memory and written when the benchmark ends. Off, begin()
/// returns -1 and nothing is recorded, so untraced runs pay one branch.
/// Single-threaded: only the benchmark's own thread records.
class span_log {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int32_t id);
  /// Records an already-timed interval (e.g. a request's due..answer).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request);

  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> durations_us(std::string_view name) const;

  /// Per name: count, total and self time (span minus the part of it its
  /// children cover), in milliseconds, ordered by self time.
  struct self_row {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<self_row> self_times() const;

  /// Writes every span as a Chrome trace_event document plus the self-time
  /// table; returns false when the file cannot be written.
  bool write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  bool on_ = false;
  std::vector<span> spans_;
};

/// RAII span; a no-op when the log is off.
class scoped_span {
 public:
  scoped_span(span_log& log, const char* name, std::int32_t parent = -1,
              std::uint64_t request = 0)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~scoped_span() { log_.end(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::int32_t id() const { return id_; }

 private:
  span_log& log_;
  std::int32_t id_;
};

/// Times a workspace `bfs_distances` on ts1000 from 200 fixed sources,
/// one span each under a "replay.bfs" span; returns the median in us.
double replay_bfs_ts1000(span_log& spans);

// --- results ----------------------------------------------------------

/// Shortest decimal text that reads back as `v` (JSON number; null when
/// not finite).
std::string num(double v);

/// `s` as a JSON string literal.
std::string quote(std::string_view s);

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports. `record` holds the machine and sizing
/// facts printed beside the metrics; `notes` are human-readable lines.
struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  /// Record entries hold JSON text: strings are quoted here.
  void fact(const std::string& key, const std::string& value) {
    record.emplace_back(key, quote(value));
  }
  void fact(const std::string& key, double value);
  /// Marks the run invalid (not slow): the reason is printed and the run
  /// reports correct=false.
  void invalidate(const std::string& reason);
};

/// Command-line options every workload reads.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< stored lab digests
  std::string trace_out;       ///< where the traced run writes its spans
  std::string work_dir = ".";  ///< scratch files (the access log)
  bool corrupt_reference = false;  ///< check-the-check probe
};


}  // namespace perfbench
