#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"

namespace mcast::obs {

namespace {

void escape_json(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const trace_dump& dump) {
  std::uint64_t base = 0;
  if (!dump.events.empty()) {
    base = dump.events.front().start_ns;
    for (const trace_event& e : dump.events) base = std::min(base, e.start_ns);
  }
  std::string text = "{\"traceEvents\": [";
  char buf[160];
  bool first = true;
  auto comma = [&] {
    text += first ? "\n" : ",\n";
    first = false;
  };
  for (const trace_event& e : dump.events) {
    comma();
    text += "  {\"name\": \"";
    escape_json(text, e.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %u",
                  static_cast<double>(e.start_ns - base) / 1000.0,
                  static_cast<double>(e.dur_ns) / 1000.0, e.tid);
    text += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof buf,
                    ", \"args\": {\"trace_id\": \"%016llx\", \"span\": "
                    "\"%016llx\", \"parent\": \"%016llx\"}",
                    static_cast<unsigned long long>(e.trace_id),
                    static_cast<unsigned long long>(e.span_id),
                    static_cast<unsigned long long>(e.parent_id));
      text += buf;
    }
    text += "}";
  }
  // Flow events: one "s" at a trace's root plus a "t" step at each span
  // on another lane, so the viewer draws the request's cross-lane arc.
  // Synthesized here — zero hot-path cost — and bound by id, which is the
  // trace_id in hex. Phases other than "X" are skipped by our own trace
  // consumer (check/trace_check, read by `mcast_lab check` and `trace`).
  std::vector<const trace_event*> roots;
  for (const trace_event& e : dump.events) {
    if (e.trace_id == 0) continue;
    bool seen = false;
    for (const trace_event* r : roots) {
      if (r->trace_id == e.trace_id) {
        seen = true;
        break;
      }
    }
    if (!seen) roots.push_back(&e);  // events are start-ordered: first wins
  }
  for (const trace_event* root : roots) {
    bool crosses = false;
    for (const trace_event& e : dump.events) {
      if (e.trace_id == root->trace_id && e.tid != root->tid) {
        crosses = true;
        break;
      }
    }
    if (!crosses) continue;
    comma();
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"request\", \"cat\": \"trace\", \"ph\": "
                  "\"s\", \"id\": \"%016llx\", \"ts\": %.3f, \"pid\": 1, "
                  "\"tid\": %u}",
                  static_cast<unsigned long long>(root->trace_id),
                  static_cast<double>(root->start_ns - base) / 1000.0,
                  root->tid);
    text += buf;
    for (const trace_event& e : dump.events) {
      if (e.trace_id != root->trace_id || e.tid == root->tid) continue;
      comma();
      std::snprintf(buf, sizeof buf,
                    "  {\"name\": \"request\", \"cat\": \"trace\", \"ph\": "
                    "\"t\", \"id\": \"%016llx\", \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %u}",
                    static_cast<unsigned long long>(e.trace_id),
                    static_cast<double>(e.start_ns - base) / 1000.0, e.tid);
      text += buf;
    }
  }
  text += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": ";
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(dump.dropped));
  text += buf;
  text += "}}\n";
  out << text;
}

void write_chrome_trace_file(const std::string& path, const trace_dump& dump) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  write_chrome_trace(out, dump);
  if (!out) throw std::runtime_error("trace: write to '" + path + "' failed");
}

#if !defined(MCAST_OBS_DISABLED)

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_capacity{4096};

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One thread's span ring. `events` grows to capacity, then `head` marks
// the oldest slot and new events overwrite it — classic ring wraparound.
struct ring {
  std::mutex mutex;
  std::vector<trace_event> events;
  std::size_t head = 0;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;

  void push(trace_event e) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::size_t cap =
        std::max<std::size_t>(1, g_capacity.load(std::memory_order_relaxed));
    e.tid = tid;
    if (events.size() < cap) {
      events.push_back(std::move(e));
    } else {
      if (head >= events.size()) head = 0;  // capacity shrank since fill
      events[head] = std::move(e);
      head = (head + 1) % events.size();
      ++dropped;
    }
  }
};

// Pool mirroring the metric shard pool: rings of exited threads are
// parked with their events intact and reused by later threads. Leaked on
// purpose so thread_local destructors at exit can still park safely.
class ring_registry {
 public:
  static ring_registry& instance() {
    static ring_registry* r = new ring_registry();
    return *r;
  }

  ring* acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!parked_.empty()) {
      ring* r = parked_.back();
      parked_.pop_back();
      return r;
    }
    rings_.push_back(std::make_unique<ring>());
    return rings_.back().get();
  }

  void park(ring* r) {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_.push_back(r);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& r : rings_) {
      std::lock_guard<std::mutex> ring_lock(r->mutex);
      r->events.clear();
      r->head = 0;
      r->dropped = 0;
    }
  }

  trace_dump collect() {
    trace_dump dump;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& r : rings_) {
      std::lock_guard<std::mutex> ring_lock(r->mutex);
      dump.dropped += r->dropped;
      // Oldest-first: a full ring starts at head, a partial one at 0.
      const std::size_t n = r->events.size();
      const std::size_t start = n == 0 ? 0 : r->head % n;
      for (std::size_t i = 0; i < n; ++i) {
        dump.events.push_back(r->events[(start + i) % n]);
      }
    }
    std::stable_sort(dump.events.begin(), dump.events.end(),
                     [](const trace_event& a, const trace_event& b) {
                       return std::tie(a.start_ns, a.tid, a.name) <
                              std::tie(b.start_ns, b.tid, b.name);
                     });
    return dump;
  }

 private:
  ring_registry() = default;

  std::mutex mutex_;
  std::vector<std::unique_ptr<ring>> rings_;
  std::vector<ring*> parked_;
};

struct ring_handle {
  ring* r;
  ring_handle() : r(ring_registry::instance().acquire()) {
    // Share the metric shard's lane id so a worker's spans and counters
    // line up in the merged trace.
    r->tid = detail::local_shard().tid;
  }
  ~ring_handle() { ring_registry::instance().park(r); }
};

ring& local_ring() {
  thread_local ring_handle handle;
  return *handle.r;
}

}  // namespace

void trace_enable(std::size_t ring_capacity) noexcept {
  g_capacity.store(std::max<std::size_t>(1, ring_capacity),
                   std::memory_order_relaxed);
  g_tracing.store(true, std::memory_order_relaxed);
}

void trace_disable() noexcept {
  g_tracing.store(false, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void trace_clear() noexcept { ring_registry::instance().clear(); }

trace_dump trace_collect() { return ring_registry::instance().collect(); }

namespace {

// The thread's active request context plus a process-wide span-id mint.
// Span ids only disambiguate parent/child linkage inside one collected
// trace; they are not part of any response, so a plain counter is fine.
thread_local trace_context g_trace_ctx;
std::atomic<std::uint64_t> g_next_span_id{1};

}  // namespace

trace_context current_trace() noexcept { return g_trace_ctx; }

trace_scope::trace_scope(trace_context ctx) noexcept : prev_(g_trace_ctx) {
  g_trace_ctx = ctx;
}

trace_scope::~trace_scope() { g_trace_ctx = prev_; }

void span::begin() noexcept {
  // Bind this thread's ring (and with it the lane id) now, not at the
  // span's end: lanes of exited threads are recycled, and a thread that
  // first took one in ~span() could inherit a lane whose previous owner
  // was still running while this span was open.
  (void)local_ring();
  start_ns_ = now_ns();
  const trace_context ctx = g_trace_ctx;
  if (ctx.trace_id == 0) return;
  trace_id_ = ctx.trace_id;
  parent_id_ = ctx.parent_span;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  prev_parent_ = ctx.parent_span;
  g_trace_ctx.parent_span = span_id_;
}

span::span(const char* name) noexcept {
  if (!trace_enabled()) return;
  name_ = name;
  begin();
}

span::span(std::string name) noexcept {
  if (!trace_enabled()) return;
  name_ = std::move(name);
  begin();
}

span::~span() {
  if (start_ns_ == 0) return;
  if (span_id_ != 0) g_trace_ctx.parent_span = prev_parent_;
  trace_event e;
  e.name = std::move(name_);
  e.start_ns = start_ns_;
  e.dur_ns = now_ns() - start_ns_;
  e.trace_id = trace_id_;
  e.span_id = span_id_;
  e.parent_id = parent_id_;
  local_ring().push(std::move(e));
}

#endif  // !MCAST_OBS_DISABLED

}  // namespace mcast::obs
