#include "obs/access_log.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>

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

void append_string(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  escape_json(out, v);
  out += '"';
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, key, v);
  out += buf;
}

void append_bool(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += v ? "\":true" : "\":false";
}

}  // namespace

std::string access_log_line(const access_entry& e, bool slow) {
  std::string out = "{\"schema\":\"";
  out += k_access_log_schema;
  out += '"';
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(e.trace_id));
  append_string(out, "trace", buf);
  append_string(out, "token", e.token);
  append_string(out, "op", e.op);
  append_string(out, "topology", e.topology);
  append_u64(out, "queue_wait_ns", e.queue_wait_ns);
  append_u64(out, "compute_ns", e.compute_ns);
  append_u64(out, "serialize_ns", e.serialize_ns);
  append_u64(out, "write_ns", e.write_ns);
  append_u64(out, "total_ns", e.total_ns);
  append_u64(out, "bytes_in", e.bytes_in);
  append_u64(out, "bytes_out", e.bytes_out);
  append_string(out, "outcome", e.outcome);
  append_bool(out, "degraded", e.degraded);
  append_bool(out, "shed", e.shed);
  append_bool(out, "chaos", e.chaos);
  append_bool(out, "slow", slow);
  out += '}';
  return out;
}

#if !defined(MCAST_OBS_DISABLED)

namespace {

// The sink. One mutex around an ofstream: a request finishes with one
// formatted line already built, so the critical section is a single
// append — far below the syscall cost of serving the request itself.
struct sink_state {
  std::mutex mutex;
  std::ofstream out;
  bool open = false;
  std::uint64_t slow_ns = 0;
};

sink_state& sink() {
  static sink_state* s = new sink_state();  // leaked: usable at exit
  return *s;
}

thread_local access_entry g_entry;
thread_local bool g_active = false;

}  // namespace

void access_log_enable(const std::string& path, std::uint64_t slow_ns) {
  sink_state& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.out.close();
  s.out.clear();
  s.out.open(path, std::ios::trunc);
  if (!s.out) {
    s.open = false;
    throw std::runtime_error("access_log: cannot open '" + path +
                             "' for writing");
  }
  s.open = true;
  s.slow_ns = slow_ns;
}

void access_log_disable() {
  sink_state& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.out.close();
  s.open = false;
}

bool access_log_enabled() noexcept {
  sink_state& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.open;
}

bool access_begin(std::uint64_t trace_id) {
  if (!access_log_enabled()) return false;
  g_entry = access_entry{};
  g_entry.trace_id = trace_id;
  g_active = true;
  return true;
}

access_entry* access_current() noexcept { return g_active ? &g_entry : nullptr; }

void access_finish() {
  if (!g_active) return;
  g_active = false;
  sink_state& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.open) return;
  const bool slow = s.slow_ns != 0 && g_entry.total_ns >= s.slow_ns;
  s.out << access_log_line(g_entry, slow) << '\n';
  add(counter::svc_access_records);
  if (slow) add(counter::svc_access_slow);
}

#endif  // !MCAST_OBS_DISABLED

}  // namespace mcast::obs
