#include "util.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/workspace.hpp"
#include "topo/cache.hpp"

extern char** environ;

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
  // execve, so it would report the launcher's peak when that is larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

/// The descriptor a set-up child writes its ready byte to.
constexpr int k_ready_fd = 3;

}  // namespace

double time_until_ready(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("cannot make a pipe");
  // Move the write end above the standard descriptors, so the child's
  // dup2 onto k_ready_fd is a real copy that drops close-on-exec.
  const int writer = ::fcntl(fds[1], F_DUPFD_CLOEXEC, 10);
  ::close(fds[1]);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, writer, k_ready_fd);
  const std::int64_t t = now_ns();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(writer);
  if (spawned != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot start the set-up probe");
  }
  char byte = 0;
  ssize_t got = 0;
  while ((got = ::read(fds[0], &byte, 1)) < 0 && errno == EINTR) {
  }
  const double s = seconds_since(t);
  ::close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (got != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  return s;
}

void signal_ready() {
  const char byte = 'r';
  (void)!::write(k_ready_fd, &byte, 1);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double replay_bfs_ts1000(span_log& spans) {
  const auto g = mcast::shared_topology_cache().get("ts1000", 7);
  mcast::traversal_workspace ws;
  std::vector<mcast::hop_count> dist;
  const std::int32_t parent = spans.begin("replay.bfs");
  for (std::uint32_t i = 0; i < 200; ++i) {
    scoped_span s(spans, "graph.bfs_distances", parent);
    mcast::bfs_distances(*g, (i * 37) % g->node_count(), ws, dist);
  }
  spans.end(parent);
  return median(spans.durations_us("graph.bfs_distances"));
}

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string reference_digest(const std::string& path, const std::string& workload,
                             std::uint64_t slot) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, digest;
    std::uint64_t s = 0;
    if (fields >> w >> s >> digest && w == workload && s == slot) return digest;
  }
  return "";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::int32_t span_log::begin(const char* name, std::int32_t parent,
                             std::uint64_t request) {
  if (!on_) return -1;
  const std::int64_t t = now_ns();
  return add(name, t, -1, parent, request);
}

void span_log::end(std::int32_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::int32_t span_log::add(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns, std::int32_t parent,
                           std::uint64_t request) {
  if (!on_) return -1;
  spans_.push_back(span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> span_log::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<span_log::self_row> span_log::self_times() const {
  // Child coverage: the union of each span's children's intervals clipped
  // to the parent. Children are recorded in start order on one thread, so
  // a running merge over them is enough.
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::map<std::string, self_row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::int32_t c : children[i]) {
      const span& k = spans_[static_cast<std::size_t>(c)];
      if (k.end_ns < 0) continue;
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, run_a = 0, run_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self_row& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.total_ms += total;
    row.self_ms += total - static_cast<double>(covered) / 1e6;
  }
  std::vector<self_row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const self_row& a, const self_row& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool span_log::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << num(static_cast<double>(s.start_ns - t0) / 1e3)
        << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n],\"selfTimes\":[";
  first = true;
  for (const self_row& row : self_times()) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << row.name
        << "\",\"count\":" << row.count << ",\"total_ms\":" << num(row.total_ms)
        << ",\"self_ms\":" << num(row.self_ms) << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(metric{name, value, unit});
}

void result::fact(const std::string& key, double value) {
  record.emplace_back(key, num(value));
}

void result::invalidate(const std::string& reason) {
  correct = false;
  notes.push_back("INVALID: " + reason);
}

}  // namespace perfbench
