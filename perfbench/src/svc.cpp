// svc_read and svc_write: an in-process line_server + query_service driven
// over loopback by one client thread that multiplexes the connections
// with ppoll().
//
// Phases, in order: set-up (repeated, median reported), a fixed plan whose
// answers are checked against a stored digest, then rounds of a
// closed-loop chunk that gives capacity and open-loop chunks at the two
// fixed offered rates. Open-loop requests are due on a fixed schedule and
// timed from when they were due, so a stall is charged to every request it
// delays. Every response is checked against a serial replay through a
// fresh query_service.
#include "svc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runner.hpp"
#include "group/group_manager.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"
#include "sim/rng.hpp"
#include "topo/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mcast::obs::counter;
using mcast::obs::histogram;
using mcast::obs::metrics_snapshot;

// --- request generation ----------------------------------------------

/// svc_load's deterministic read mix on ARPA: 4/8 lmhat, 2/8
/// reachability, 1/8 small lm_estimate, 1/8 healthz.
std::string read_request(std::uint64_t seed, std::size_t conn, std::size_t i) {
  const std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + conn * 131 + i;
  switch (i % 8) {
    case 3:
      return "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":"
             "[2,4,8],\"sources\":3,\"receiver_sets\":2,\"seed\":" +
             std::to_string(h % 1000) + "}";
    case 6:
      return "{\"op\":\"healthz\"}";
    case 1:
    case 5:
      return "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":" +
             std::to_string(h % 40) + "}";
    default:
      return "{\"op\":\"lmhat\",\"k\":" + std::to_string(2 + h % 6) +
             ",\"depth\":" + std::to_string(3 + h % 4) + ",\"n\":[1,10,100]}";
  }
}

/// One group operation of a write stream, kept so the group layer can be
/// replayed directly through group_manager in the traced run.
struct group_op {
  enum kind_t { create, join, leave, stats } kind;
  std::string group;
  std::uint32_t site = 0;
};

constexpr std::size_t k_groups_per_stream = 4;
constexpr std::size_t k_max_members = 64;
constexpr const char* k_group_topology = "ts1000";
constexpr const char* k_group_scope = "ts1000:7:0";  // name:seed:budget

/// The write stream of one connection in one phase: it creates its own
/// groups on ts1000, then mixes join/leave/stats on them with one lmhat
/// read in four. Membership is simulated here, so every leave names a
/// joined site and no group exceeds k_max_members.
class write_stream {
 public:
  write_stream(char tag, std::uint64_t seed, std::size_t phase,
               std::size_t conn, std::uint64_t nodes)
      : gen_(seed * 0x9e3779b97f4a7c15ull + phase * 7919 + conn * 104729 + 1),
        nodes_(nodes),
        members_(k_groups_per_stream) {
    for (std::size_t j = 0; j < k_groups_per_stream; ++j) {
      names_.push_back(tag + std::to_string(phase) + "c" +
                       std::to_string(conn) + "g" + std::to_string(j));
    }
  }

  std::string next(std::vector<group_op>* ops) {
    const std::size_t i = emitted_++;
    group_op op{group_op::stats, "", 0};
    if (i < k_groups_per_stream) {
      op = {group_op::create, names_[i], 0};
    } else if (i % 4 == 3) {
      const std::uint64_t h = gen_();
      return "{\"op\":\"lmhat\",\"k\":" + std::to_string(2 + h % 6) +
             ",\"depth\":" + std::to_string(3 + (h >> 8) % 4) +
             ",\"n\":[1,10,100]}";
    } else {
      const std::size_t j = gen_.below(k_groups_per_stream);
      std::vector<std::uint32_t>& m = members_[j];
      const std::uint64_t roll = gen_.below(100);
      op.group = names_[j];
      if (nodes_ > 0 && (m.empty() || (m.size() < k_max_members && roll < 45))) {
        op.kind = group_op::join;
        op.site = static_cast<std::uint32_t>(gen_.below(nodes_));
        m.push_back(op.site);
      } else if (!m.empty() && (m.size() >= k_max_members || roll < 80)) {
        op.kind = group_op::leave;
        const std::size_t at = gen_.below(m.size());
        op.site = m[at];
        m[at] = m.back();
        m.pop_back();
      }
    }
    if (ops) ops->push_back(op);
    static const char* const verbs[] = {"group_create", "group_join",
                                        "group_leave", "group_stats"};
    std::string line = std::string("{\"op\":\"") + verbs[op.kind] +
                       "\",\"topology\":\"" + k_group_topology +
                       "\",\"group\":\"" + op.group + "\"";
    if (op.kind == group_op::create) line += ",\"source\":0";
    if (op.kind == group_op::join || op.kind == group_op::leave) {
      line += ",\"site\":" + std::to_string(op.site);
    }
    return line + "}";
  }

 private:
  mcast::rng gen_;
  std::uint64_t nodes_;  ///< 0: only creates, stats and reads (warm-up)
  std::vector<std::string> names_;
  std::vector<std::vector<std::uint32_t>> members_;
  std::size_t emitted_ = 0;
};

/// What a response must be: its length and digest, or (for healthz, whose
/// uptime and counters are live) only an ok status.
struct expect {
  std::uint64_t digest = 0;
  std::size_t length = 0;
  bool status_only = false;
};

bool is_ok(std::string_view response) {
  return response.substr(0, 48).find("\"ok\":true") != std::string_view::npos;
}

/// Static span name of a line's op, client side ("client.<op>") or
/// service side ("service.handle.<op>", group ops pooled), so spans can
/// hold a plain pointer.
const char* op_name(std::string_view line, bool client_side) {
  static const char* const ops[] = {"lmhat",        "reachability",
                                    "lm_estimate",  "healthz",
                                    "group_create", "group_join",
                                    "group_leave",  "group_stats"};
  static const char* const client[] = {
      "client.lmhat",        "client.reachability", "client.lm_estimate",
      "client.healthz",      "client.group_create", "client.group_join",
      "client.group_leave",  "client.group_stats"};
  static const char* const handle[] = {
      "service.handle.lmhat",       "service.handle.reachability",
      "service.handle.lm_estimate", "service.handle.healthz",
      "service.handle.group",       "service.handle.group",
      "service.handle.group",       "service.handle.group"};
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    if (line.find(std::string("\"op\":\"") + ops[i] + "\"") !=
        std::string_view::npos) {
      return client_side ? client[i] : handle[i];
    }
  }
  return client_side ? "client.other" : "service.handle.other";
}

/// A phase's requests: line k of `order` is sent on connection k % C.
struct plan {
  std::vector<std::string> lines;
  std::vector<expect> want;             ///< parallel to lines
  std::vector<std::uint32_t> order;     ///< request k -> index into lines
  std::vector<group_op> group_ops;      ///< write streams, when kept
};

/// Generates the phases' request streams from the seed. The server only
/// ever sees these lines. Read lines are pure, so repeats share one entry
/// of plan::lines; write lines never do. `tag` keeps group names of
/// different planners apart.
class planner {
 public:
  planner(bool write, std::uint64_t seed, char tag)
      : write_(write), seed_(seed), tag_(tag) {}

  /// ts1000's node count, which join sites are drawn below; 0 keeps write
  /// streams to creates, stats and reads.
  void set_nodes(std::uint64_t nodes) { nodes_ = nodes; }

  plan make(std::size_t total, bool keep_group_ops = false) {
    const std::size_t phase = phase_++;
    plan out;
    std::vector<write_stream> streams;
    for (std::size_t c = 0; c < k_connections; ++c) {
      streams.emplace_back(tag_, seed_, phase, c, nodes_);
    }
    std::unordered_map<std::string, std::uint32_t> index;
    for (std::size_t k = 0; k < total; ++k) {
      const std::size_t c = k % k_connections;
      std::string line =
          write_ ? streams[c].next(keep_group_ops ? &out.group_ops : nullptr)
                 : read_request(seed_, c, read_index_ + k / k_connections);
      if (write_) {
        out.order.push_back(static_cast<std::uint32_t>(out.lines.size()));
        out.lines.push_back(std::move(line));
        continue;
      }
      auto [it, fresh] = index.emplace(
          std::move(line), static_cast<std::uint32_t>(out.lines.size()));
      if (fresh) out.lines.push_back(it->first);
      out.order.push_back(it->second);
    }
    read_index_ += total / k_connections + 1;
    return out;
  }

 private:
  bool write_;
  std::uint64_t seed_;
  char tag_;
  std::uint64_t nodes_ = 0;
  std::size_t phase_ = 0;
  std::size_t read_index_ = 0;
};

/// Serial replay through one fresh query_service gives the expected
/// answer of every line. Group streams use disjoint groups per connection
/// and phase, which the group determinism contract makes independent of
/// how the server interleaved the connections.
class replayer {
 public:
  /// Fills p.want. False when the replay itself answered non-ok: the
  /// workload is broken, not slow.
  bool fill(plan& p, bool corrupt) {
    p.want.assign(p.lines.size(), expect{});
    // Distinct lines in first-use order, so group ops replay in sequence.
    std::vector<char> seen(p.lines.size(), 0);
    for (std::uint32_t id : p.order) {
      if (seen[id]) continue;
      seen[id] = 1;
      const std::string& line = p.lines[id];
      expect& w = p.want[id];
      if (line == "{\"op\":\"healthz\"}") {
        w.status_only = true;
        continue;
      }
      std::string answer = service_.handle(line);
      if (!is_ok(answer)) {
        problem_ = line + " -> " + answer;
        return false;
      }
      // The check-the-check probe: a reference whose lmhat answers are
      // wrong must make the run report failures.
      if (corrupt && line.find("\"op\":\"lmhat\"") != std::string::npos) {
        answer += ' ';
      }
      w.length = answer.size();
      w.digest = fnv1a(answer);
    }
    return true;
  }
  const std::string& problem() const { return problem_; }

 private:
  mcast::service::query_service service_;
  std::string problem_;
};

/// Digest of a filled plan's expected answers, in line order: what
/// reference.txt stores for the fixed plan. Status-only lines (healthz)
/// carry no answer to digest.
std::uint64_t answers_digest(const plan& p) {
  std::string all;
  for (const expect& w : p.want) {
    if (w.status_only) continue;
    all += hex64(w.digest) + ":" + std::to_string(w.length) + "\n";
  }
  return fnv1a(all);
}

/// The fixed plan: this seed and size, whatever --seed is.
constexpr std::uint64_t k_fixed_seed = 20;
constexpr std::size_t k_fixed_requests = 512;

// --- the client --------------------------------------------------------

/// The traced run keeps a span for one request in this many, and replays
/// at most this many closed-loop requests and group ops through single
/// layers: enough samples for a p99 per op, and a trace file of a few MB.
constexpr std::size_t k_span_every = 128;
constexpr std::size_t k_replay_limit = 20000;

struct phase_outcome {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< by request; failures are k_missed
  std::vector<double> late_ms;     ///< open loop: send time minus due time
  std::size_t backlog_end = 0;     ///< outstanding when the schedule ended
  double client_cpu_s = 0.0;
  std::vector<std::string> failures;  ///< the first few, for the notes
};

class client {
 public:
  explicit client(std::uint16_t port) {
    for (std::size_t c = 0; c < k_connections; ++c) {
      conn& k = conns_.emplace_back();
      k.fd = mcast::net::connect_loopback(port);
      ::fcntl(k.fd.get(), F_SETFL, ::fcntl(k.fd.get(), F_GETFL) | O_NONBLOCK);
    }
  }

  /// Runs one phase: closed loop with `depth` requests outstanding per
  /// connection when rate <= 0, else open loop at `rate` requests per
  /// second. Spans (traced run only) cover each request from when it was
  /// due to its answer.
  phase_outcome run(const plan& p, double rate, span_log& spans,
                    std::int32_t parent, std::uint64_t request_base,
                    std::size_t depth = 1) {
    const std::size_t n = p.order.size();
    const bool closed = rate <= 0.0;
    const double period_ns = closed ? 0.0 : 1e9 / rate;
    std::vector<std::int64_t> start(n, 0);
    std::vector<const char*> names;
    if (spans.on()) {
      for (const std::string& line : p.lines) names.push_back(op_name(line, true));
    }
    phase_outcome out;
    out.attempted = n;
    out.latency_ms.assign(n, k_missed);
    if (!closed) out.late_ms.reserve(n);
    std::vector<std::deque<std::uint32_t>> backlog(conns_.size());
    for (conn& k : conns_) k.waiting.clear();

    const double cpu0 = thread_cpu_seconds();
    const std::int64_t t0 = now_ns();
    const std::int64_t schedule_end =
        t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(n));
    std::size_t next = 0, done = 0;
    bool backlog_taken = closed;
    std::int64_t last_progress = t0, last_done = t0;

    auto send = [&](std::size_t k, std::int64_t t) {
      conn& c = conns_[k % conns_.size()];
      c.out += p.lines[p.order[k]];
      c.out += '\n';
      c.waiting.push_back(static_cast<std::uint32_t>(k));
      start[k] = t;
    };
    if (closed) {
      for (std::size_t k = 0; k < n; ++k) {
        backlog[k % conns_.size()].push_back(static_cast<std::uint32_t>(k));
      }
      for (auto& q : backlog) {
        for (std::size_t d = 0; d < depth && !q.empty(); ++d) {
          send(q.front(), now_ns());
          q.pop_front();
        }
      }
    }

    std::vector<pollfd> fds(conns_.size() + (sink_ >= 0 ? 1 : 0));
    if (sink_ >= 0) fds.back() = pollfd{sink_, POLLIN, 0};
    bool broken = false;
    while (done < n && !broken) {
      std::int64_t now = now_ns();
      if (!closed) {
        while (next < n) {
          const std::int64_t due =
              t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(next));
          if (due > now) break;
          send(next, due);
          out.late_ms.push_back(static_cast<double>(now - due) / 1e6);
          ++next;
        }
        if (!backlog_taken && now >= schedule_end) {
          out.backlog_end = next - done;
          backlog_taken = true;
        }
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (!flush(conns_[i])) broken = true;
        fds[i] = pollfd{conns_[i].fd.get(),
                        static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)),
                        0};
      }
      std::int64_t wait_ns = 100'000'000;
      if (!closed && next < n) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(next));
        wait_ns = std::max<std::int64_t>(0, due - now);
      } else if (!backlog_taken) {
        wait_ns = std::max<std::int64_t>(0, schedule_end - now);
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) break;
      for (std::size_t i = 0; i < conns_.size() && ready > 0; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        conn& c = conns_[i];
        if (!fill(c)) broken = true;
        std::size_t eol;
        while ((eol = c.in.find('\n', c.in_off)) != std::string::npos) {
          const std::string_view line(c.in.data() + c.in_off, eol - c.in_off);
          c.in_off = eol + 1;
          if (c.waiting.empty()) {  // an answer nobody asked for
            ++out.failed;
            note(out, "unexpected response: " + std::string(line.substr(0, 120)));
            continue;
          }
          const std::uint32_t k = c.waiting.front();
          c.waiting.pop_front();
          const std::int64_t t = now_ns();
          const expect& w = p.want[p.order[k]];
          const bool good = w.status_only
                                ? is_ok(line)
                                : line.size() == w.length && fnv1a(line) == w.digest;
          if (good) {
            ++out.ok;
            out.latency_ms[k] = static_cast<double>(t - start[k]) / 1e6;
          } else {
            ++out.failed;
            note(out, p.lines[p.order[k]] + " -> " + std::string(line.substr(0, 160)));
          }
          if (spans.on() && k % k_span_every == 0) {
            spans.add(names[p.order[k]], start[k], t, parent, request_base + k);
          }
          ++done;
          last_progress = last_done = t;
          if (closed && !backlog[i].empty()) {
            send(backlog[i].front(), t);
            backlog[i].pop_front();
          }
        }
        if (c.in_off > 65536) {
          c.in.erase(0, c.in_off);
          c.in_off = 0;
        }
      }
      if (sink_ >= 0 && (fds.back().revents & POLLIN) != 0) drain(sink_);
      if (now_ns() - last_progress > 10'000'000'000LL &&
          (closed || next == n)) {
        break;  // nothing answered for 10 s: the rest is lost
      }
    }
    if (done < n) {
      const std::size_t lost = n - done;
      out.failed += lost;
      note(out, std::to_string(lost) + " requests never answered");
    }
    if (!backlog_taken) out.backlog_end = n - done;
    out.wall_s = static_cast<double>(last_done - t0) / 1e9;
    out.client_cpu_s = thread_cpu_seconds() - cpu0;
    return out;
  }

  /// While `fd` >= 0, run() also empties that pipe whenever it is readable.
  void set_sink(int fd) { sink_ = fd; }

  /// Reads and discards whatever `fd` holds now.
  static void drain(int fd) {
    char buf[65536];
    while (::read(fd, buf, sizeof buf) > 0) {
    }
  }

 private:
  struct conn {
    mcast::net::unique_fd fd;
    std::string out;
    std::string in;
    std::size_t in_off = 0;
    std::deque<std::uint32_t> waiting;  ///< sent, not yet answered, in order
  };

  static void note(phase_outcome& out, std::string what) {
    if (out.failures.size() < 3) out.failures.push_back(std::move(what));
  }

  /// Writes what the socket takes now; false on a dead connection.
  static bool flush(conn& c) {
    while (!c.out.empty()) {
      const ssize_t w = ::send(c.fd.get(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (w > 0) {
        c.out.erase(0, static_cast<std::size_t>(w));
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  /// Reads what has arrived; false when the peer closed or failed.
  static bool fill(conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t r = ::recv(c.fd.get(), buf, sizeof buf, 0);
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof buf) return true;
      } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (r < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
  }

  std::vector<conn> conns_;
  int sink_ = -1;
};

// --- the server ----------------------------------------------------------

/// `mcast_lab serve` with its default limits and typed error lines, except
/// for the worker count. The query service is the monolith (no shards).
mcast::net::server_config serve_config() {
  using mcast::service::error_code;
  using mcast::service::error_response;
  mcast::net::server_config config;
  config.workers = k_service_workers;
  config.queue_capacity = 64;
  config.overload_response = error_response(
      error_code::overloaded, "connection queue full; retry later");
  config.overlong_response = error_response(
      error_code::limit_exceeded, "request line exceeds 1048576 bytes");
  config.internal_error_response =
      error_response(error_code::internal_error, "request handler failed");
  config.deadline_response = error_response(
      error_code::deadline_exceeded,
      "request or response outlived the server's deadline");
  return config;
}

/// The service, its server, the connected client, and the access log's
/// target: a FIFO at `log_path` that the client thread drains. A regular
/// file on the shared host's ext4 disk made the log's write() block for
/// milliseconds whenever other tenants filled the journal; the pipe keeps
/// the sink's own cost (formatting, its mutex, write()) and drops the
/// disk's. Destruction closes the client, drains and joins the server,
/// then closes the log before its reader.
class harness {
 public:
  explicit harness(std::string log_path)
      : log_path_(std::move(log_path)),
        service_(std::make_shared<mcast::service::query_service>()),
        server_(serve_config(),
                [svc = service_](const std::string& line) {
                  return svc->handle(line);
                }) {
    service_->set_stats_source([this] { return server_.stats(); });
    client_ = std::make_unique<client>(server_.port());
    ::unlink(log_path_.c_str());
    if (::mkfifo(log_path_.c_str(), 0600) != 0) {
      throw std::runtime_error("cannot create the access-log FIFO " + log_path_);
    }
    reader_ = mcast::net::unique_fd(::open(log_path_.c_str(), O_RDONLY | O_NONBLOCK));
    if (!reader_.valid()) {
      throw std::runtime_error("cannot open the access-log FIFO " + log_path_);
    }
    ::fcntl(reader_.get(), F_SETPIPE_SZ, 1 << 20);
  }
  ~harness() {
    client_.reset();
    server_.shutdown();
    server_.wait();
    client::drain(reader_.get());
    mcast::obs::access_log_disable();
    ::unlink(log_path_.c_str());
  }
  harness(const harness&) = delete;
  harness& operator=(const harness&) = delete;

  client& load() { return *client_; }

  /// Turns the access log on (into the FIFO) or off.
  void log(bool on) {
    if (on) {
      mcast::obs::access_log_enable(log_path_);
    } else {
      mcast::obs::access_log_disable();
    }
    client_->set_sink(on ? reader_.get() : -1);
  }

 private:
  mcast::net::unique_fd reader_;  // declared first: closed last
  std::string log_path_;
  std::shared_ptr<mcast::service::query_service> service_;
  mcast::net::line_server server_;
  std::unique_ptr<client> client_;
};

// --- statistics over rounds -------------------------------------------------

/// Obs registry activity summed over the timed chunks only, so the
/// untimed replays between them do not count.
struct obs_delta {
  metrics_snapshot sum;

  /// Adds what happened between snapshots `a` and `b`.
  void add(const metrics_snapshot& a, const metrics_snapshot& b) {
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
      sum.counters[i] += b.counters[i] - a.counters[i];
    }
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
      sum.histograms[i].count += b.histograms[i].count - a.histograms[i].count;
      sum.histograms[i].sum += b.histograms[i].sum - a.histograms[i].sum;
    }
  }
  double count(counter c) const { return static_cast<double>(sum.at(c)); }
  double mean(histogram h) const {
    return ratio(static_cast<double>(sum.at(h).sum),
                 static_cast<double>(sum.at(h).count));
  }
  double total(histogram h) const { return static_cast<double>(sum.at(h).sum); }
};

/// The timed phases run in this many rounds (closed, r50, r80 in each),
/// and every open-loop chunk is cut into k_windows consecutive windows. A
/// latency is the median over all its windows, so a burst of outside load
/// that lasts a few seconds moves a minority of windows rather than the
/// run.
constexpr std::size_t k_rounds = 10;
constexpr std::size_t k_windows = 2;

/// One phase's chunks, summed over the rounds.
struct phase_totals {
  std::size_t attempted = 0, ok = 0, failed = 0;
  double wall_s = 0.0, client_cpu_s = 0.0;
  std::vector<double> p50, p99;  ///< open: latency quantiles per window
  std::vector<double> latency_ms;  ///< open: every request, for the trace
  std::vector<double> late_ms;     ///< open: every send's lateness
  std::size_t backlog_end = 0;     ///< worst chunk
  std::vector<std::string> failures;

  void add(const phase_outcome& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    wall_s += o.wall_s;
    client_cpu_s += o.client_cpu_s;
    for (const std::string& f : o.failures) failures.push_back(f);
    const std::size_t n = o.latency_ms.size();
    if (o.late_ms.empty()) return;  // closed loop: totals only
    for (std::size_t w = 0; w < k_windows; ++w) {
      std::vector<double> slice(
          o.latency_ms.begin() + static_cast<std::ptrdiff_t>(w * n / k_windows),
          o.latency_ms.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / k_windows));
      if (slice.empty()) continue;
      p50.push_back(quantile(slice, 0.50));
      p99.push_back(quantile(slice, 0.99));
    }
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    backlog_end = std::max(backlog_end, o.backlog_end);
  }

  double late_p99_ms() const {
    std::vector<double> v = late_ms;
    return quantile(v, 0.99);
  }

  /// Closed loop: ok answers per second over the whole batch.
  double capacity() const { return ratio(static_cast<double>(ok), wall_s); }
};

/// One set-up: the access log (svc_write), the service and its server,
/// connected clients, and a warm-up burst that must be answered ok and
/// leave the workload's topology cached. `problem` says what failed.
std::unique_ptr<harness> start_service(const svc_profile& prof,
                                       const std::string& log_path,
                                       std::uint64_t seed, std::string& problem) {
  const bool write = prof.access_log;
  auto h = std::make_unique<harness>(log_path);
  h->log(write);
  planner warm(write, seed ^ 0x5eed, 'w');
  plan burst = warm.make(16 * k_connections);
  burst.want.assign(burst.lines.size(), expect{0, 0, true});
  span_log none;
  const phase_outcome w = h->load().run(burst, 0.0, none, -1, 0);
  if (w.failed != 0) {
    problem = "warm-up burst failed: " + w.failures.front();
  } else if (mcast::shared_topology_cache().size() == 0) {
    problem = "the warm-up burst cached no topology";
  }
  return h;
}

}  // namespace

int service_ready(const svc_profile& prof, const std::string& work_dir) {
  const std::string log_path = work_dir + "/ready-" + prof.name + ".jsonl";
  std::string problem;
  const std::unique_ptr<harness> h = start_service(prof, log_path, 1, problem);
  if (!problem.empty()) return 1;
  signal_ready();
  return 0;
}

// --- the workload ----------------------------------------------------------

result run_service(const options& opt, const svc_profile& prof,
                   span_log& spans) {
  result res;
  const bool write = prof.access_log;
  const std::string log_path = opt.work_dir + "/access-" + prof.name + ".jsonl";
  // Set-up, repeated: a fresh process until its server listens, the
  // clients are connected, the warm-up burst is answered and every
  // topology the workload uses is cached (service_ready).
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < k_setup_reps; ++rep) {
    scoped_span s(spans, "setup");
    setup_s.push_back(time_until_ready(
        {"perfbench", "--ready", prof.name, "--work-dir", opt.work_dir}));
  }
  std::string problem;
  std::unique_ptr<harness> h = start_service(prof, log_path, opt.seed, problem);
  if (!problem.empty()) res.invalidate(problem);

  const std::uint64_t nodes =
      write ? mcast::shared_topology_cache().get(k_group_topology, 7)->node_count()
            : 0;
  replayer reference;

  // The fixed plan: its replayed answers must match the digest stored in
  // reference.txt, which anchors the replay (and so every check below) to
  // answers recorded when the benchmark was defined. The server must then
  // give the same answers.
  {
    planner fixed(write, k_fixed_seed, 'f');
    fixed.set_nodes(nodes);
    plan p = fixed.make(k_fixed_requests);
    if (!reference.fill(p, false)) {
      res.invalidate("reference replay failed: " + reference.problem());
    }
    std::string want = reference_digest(opt.reference_path, prof.name, 0);
    if (want.empty()) {
      res.invalidate("no reference digest for " + std::string(prof.name) + " in " +
                     opt.reference_path);
    }
    if (opt.corrupt_reference && !want.empty()) want[0] = want[0] == '0' ? '1' : '0';
    const std::string got = hex64(answers_digest(p));
    ++res.attempted;
    if (got != want) {
      ++res.failed;
      res.notes.push_back("failed: fixed-plan answers digest " + got +
                          " != reference " + want);
    }
    span_log none;
    const phase_outcome o = h->load().run(p, 0.0, none, -1, 0, k_closed_depth);
    res.attempted += o.attempted;
    res.failed += o.failed;
    for (const std::string& f : o.failures) res.notes.push_back("failed: " + f);
  }

  planner plans(write, opt.seed, 'p');
  plans.set_nodes(nodes);
  const auto chunk = [&](double rate, double share) {
    return static_cast<std::size_t>(
        std::llround(rate * share * opt.seconds / static_cast<double>(k_rounds)));
  };

  // The timed rounds. The client thread asks for a fine timer slack so
  // its ppoll wakes close to each due time.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  phase_totals closed, r50, r80;
  obs_delta timed, closed_only;
  std::vector<plan> replay_lines;  // traced run: the closed-loop chunks
  for (std::size_t r = 0; r < k_rounds; ++r) {
    // Untimed: this round's request streams and their expected answers.
    plan pc = plans.make(chunk(prof.capacity_ref_rps, k_closed_share), opt.trace);
    plan p50 = plans.make(chunk(prof.r50_rps, k_open_share));
    plan p80 = plans.make(chunk(prof.r80_rps, k_open_share));
    for (plan* pl : {&pc, &p50, &p80}) {
      if (!reference.fill(*pl, opt.corrupt_reference)) {
        res.invalidate("reference replay failed: " + reference.problem());
      }
    }
    const std::uint64_t base = (r + 1) << 40;
    const metrics_snapshot s0 = mcast::obs::snapshot();
    {
      scoped_span s(spans, "phase.closed");
      closed.add(h->load().run(pc, 0.0, spans, s.id(), base, k_closed_depth));
    }
    const metrics_snapshot s1 = mcast::obs::snapshot();
    {
      scoped_span s(spans, "phase.r50");
      r50.add(h->load().run(p50, prof.r50_rps, spans, s.id(), base + (1ull << 36)));
    }
    {
      scoped_span s(spans, "phase.r80");
      r80.add(h->load().run(p80, prof.r80_rps, spans, s.id(), base + (2ull << 36)));
    }
    timed.add(s0, mcast::obs::snapshot());
    closed_only.add(s0, s1);
    if (opt.trace) replay_lines.push_back(std::move(pc));
  }
  const metrics_snapshot after = mcast::obs::snapshot();

  for (const phase_totals* t : {&closed, &r50, &r80}) {
    res.attempted += t->attempted;
    res.failed += t->failed;
    for (std::size_t i = 0; i < t->failures.size() && i < 3; ++i) {
      res.notes.push_back("failed: " + t->failures[i]);
    }
  }
  const double capacity = closed.capacity();
  // The fastest set-up, not the median: see k_setup_reps.
  res.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  res.fact("setup_s_median", median(setup_s));
  res.set("wall_s", closed.wall_s, "s");
  res.set("capacity_rps", capacity, "1/s");
  res.set("p50_ms_r50", median(r50.p50), "ms");
  res.set("p99_ms_r50", median(r50.p99), "ms");
  res.set("p99_ms_r80", median(r80.p99), "ms");

  // Open-loop honesty: a generator that fell behind or a backlog that
  // grew makes the run invalid, not fast.
  for (const auto& [t, rate] : {std::pair{&r50, prof.r50_rps}, std::pair{&r80, prof.r80_rps}}) {
    if (t->late_p99_ms() > k_max_gen_late_ms) {
      res.invalidate("open-loop generator ran " + num(t->late_p99_ms()) +
                     " ms late at p99 (" + num(rate) + " req/s)");
    }
    const double limit =
        std::max(k_max_backlog_requests, rate * k_max_backlog_seconds);
    if (static_cast<double>(t->backlog_end) > limit) {
      res.invalidate("backlog of " + std::to_string(t->backlog_end) +
                     " requests at the end of a " + num(rate) + " req/s schedule");
    }
  }
  const double late_p99 = std::max(r50.late_p99_ms(), r80.late_p99_ms());
  const std::size_t backlog_end = std::max(r50.backlog_end, r80.backlog_end);

  res.fact("setup_reps", static_cast<double>(k_setup_reps));
  res.fact("fixed_plan_requests", static_cast<double>(k_fixed_requests));
  res.fact("rounds", static_cast<double>(k_rounds));
  res.fact("windows_per_chunk", static_cast<double>(k_windows));
  res.fact("closed_requests", static_cast<double>(closed.attempted));
  res.fact("r50_rps", prof.r50_rps);
  res.fact("r80_rps", prof.r80_rps);
  res.fact("p50_ms_r50_samples", static_cast<double>(r50.ok));
  res.fact("p99_ms_r50_samples", static_cast<double>(r50.ok));
  res.fact("p99_ms_r80_samples", static_cast<double>(r80.ok));
  res.fact("failed_r50", static_cast<double>(r50.failed));
  res.fact("failed_r80", static_cast<double>(r80.failed));
  res.fact("gen_late_ms_p99", late_p99);
  res.fact("backlog_end", static_cast<double>(backlog_end));
  res.fact("access_log", write ? "on" : "off");
  res.fact("workers", static_cast<double>(k_service_workers));
  res.fact("connections", static_cast<double>(k_connections));
  res.fact("client_threads", 1.0);
  res.fact("server_threads", static_cast<double>(k_service_workers + 1));

  if (opt.trace) {
    res.set("bench.gen_late_ms.p99", late_p99, "ms");
    res.set("bench.backlog_end", static_cast<double>(backlog_end), "count");
    res.set("bench.client_cpu_frac",
            ratio(r50.client_cpu_s + r80.client_cpu_s, r50.wall_s + r80.wall_s),
            "ratio");

    // Server-side attribution from the obs registry over the timed rounds.
    res.set("net.queue_wait_us.mean", timed.mean(histogram::svc_queue_wait_ns) / 1e3,
            "us");
    res.set("net.write_us.mean", timed.mean(histogram::svc_write_ns) / 1e3, "us");
    res.set("net.busy_frac",
            ratio(closed_only.total(histogram::svc_request_ns) / 1e9,
                  closed.wall_s * static_cast<double>(k_service_workers)),
            "ratio");
    res.set("net.rejected", timed.count(counter::svc_connections_rejected), "count");
    res.set("service.serialize_us.mean",
            timed.mean(histogram::svc_serialize_ns) / 1e3, "us");
    res.set("service.errors", timed.count(counter::svc_responses_error), "count");
    res.set("service.shed",
            timed.count(counter::svc_shed_refused) +
                timed.count(counter::svc_shed_degraded),
            "count");
    res.set("obs.access_log_records", timed.count(counter::svc_access_records),
            "count");
    res.set("topo.cache_hits", static_cast<double>(after.at(counter::topo_cache_hits)),
            "count");
    res.set("topo.cache_misses",
            static_cast<double>(after.at(counter::topo_cache_misses)), "count");
    res.set("graph.workspace_reuse_ratio",
            ratio(timed.count(counter::workspace_reuses),
                  timed.count(counter::workspace_grows) +
                      timed.count(counter::workspace_reuses)),
            "ratio");
    res.set("multicast.spt_cache_hit_ratio",
            ratio(timed.count(counter::spt_cache_hits),
                  timed.count(counter::spt_cache_hits) +
                      timed.count(counter::spt_cache_misses)),
            "ratio");
    res.set("group.links_per_join",
            ratio(timed.count(counter::group_links_grafted),
                  timed.count(counter::group_joins)),
            "count");

    // Two more closed-loop batches of the same size, untimed by the
    // end-to-end metrics: one with spans off (tracing overhead) and one
    // with the access log in the other state (its cost at saturation).
    const std::size_t batch = closed.attempted;
    const auto extra = [&](bool flip_log) {
      plan pl = plans.make(batch);
      reference.fill(pl, false);
      if (flip_log) h->log(!write);
      spans.enable(false);
      phase_totals t;
      t.add(h->load().run(pl, 0.0, spans, -1, 0, k_closed_depth));
      spans.enable(true);
      if (flip_log) h->log(write);
      res.attempted += t.attempted;
      res.failed += t.failed;
      return t.capacity();
    };
    const double cap_untraced = extra(false);
    const double cap_flipped = extra(true);
    res.set("bench.trace_overhead_frac", ratio(cap_untraced - capacity, cap_untraced),
            "ratio");
    const double cap_off = write ? cap_flipped : cap_untraced;
    const double cap_on = write ? cap_untraced : cap_flipped;
    res.set("obs.access_log_overhead_frac", ratio(cap_off - cap_on, cap_off), "ratio");

    // The closed-loop lines again, through parse_request and a fresh
    // query_service's handle(), each call timed.
    {
      const std::int32_t replay = spans.begin("replay.service");
      mcast::service::query_service fresh;
      std::vector<double> handle_us;
      std::uint64_t id = 6ull << 40;
      for (const plan& pc : replay_lines) {
        for (std::uint32_t line_id : pc.order) {
          if (id - (6ull << 40) >= k_replay_limit) break;
          const std::string& line = pc.lines[line_id];
          const std::int32_t req = spans.begin("replay.request", replay, ++id);
          {
            scoped_span ps(spans, "service.parse_request", req, id);
            try {
              (void)mcast::service::parse_request(line);
            } catch (const std::exception&) {
              ++res.failed;
            }
          }
          const std::int64_t t = now_ns();
          (void)fresh.handle(line);
          const std::int64_t e = now_ns();
          spans.add(op_name(line, false), t, e, req, id);
          handle_us.push_back(static_cast<double>(e - t) / 1e3);
          spans.end(req);
        }
      }
      spans.end(replay);
      res.set("service.parse_us.p50",
              median(spans.durations_us("service.parse_request")), "us");
      for (const char* op : {"lmhat", "reachability", "lm_estimate", "group"}) {
        std::vector<double> d = spans.durations_us(std::string("service.handle.") + op);
        res.set(std::string("service.handle_us.") + op + ".p50", quantile(d, 0.5), "us");
        res.set(std::string("service.handle_us.") + op + ".p99", quantile(d, 0.99), "us");
      }
      // Client latency at r50 outside the handler: loopback, syscalls and
      // framing.
      std::vector<double> client_us;
      for (double ms : r50.latency_ms) client_us.push_back(ms * 1e3);
      res.set("net.outside_handler_us.p50", median(client_us) - median(handle_us), "us");
    }

    // Topology build per topology the workload uses.
    {
      scoped_span s(spans, "topo.build_catalog_topology");
      (void)mcast::build_catalog_topology(write ? k_group_topology : "ARPA", 7, 0);
    }
    res.set("topo.build_ms",
            mean(spans.durations_us("topo.build_catalog_topology")) / 1e3, "ms");

    if (!write) {
      // Reachability's share: workspace BFS on ts1000 from fixed sources.
      res.set("graph.bfs_us.p50", replay_bfs_ts1000(spans), "us");

      // lm_estimate's Monte-Carlo runner, with the request's sizes.
      const auto arpa = mcast::shared_topology_cache().get("ARPA", 7);
      double samples = 0.0;
      const std::int32_t mc = spans.begin("replay.monte_carlo");
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        mcast::monte_carlo_params params;
        params.sources = 3;
        params.receiver_sets = 2;
        params.seed = seed;
        scoped_span s(spans, "core.measure_distinct_receivers", mc);
        for (const auto& row : mcast::measure_distinct_receivers(*arpa, {2, 4, 8}, params)) {
          samples += static_cast<double>(row.samples);
        }
      }
      spans.end(mc);
      const std::vector<double> d = spans.durations_us("core.measure_distinct_receivers");
      res.set("core.mc_sample_us", ratio(mean(d) * static_cast<double>(d.size()), samples),
              "us");
    } else {
      // The group layer alone: the closed-loop op streams through a fresh
      // group_manager, joins and leaves timed.
      mcast::group_manager groups;
      const auto g = mcast::shared_topology_cache().get(k_group_topology, 7);
      const mcast::group_config config;
      const std::int32_t parent = spans.begin("replay.group_manager");
      std::size_t replayed = 0;
      for (const plan& pc : replay_lines) {
        for (const group_op& op : pc.group_ops) {
          if (replayed++ >= k_replay_limit) break;
          switch (op.kind) {
            case group_op::create:
              groups.create(k_group_scope, op.group, g, config);
              break;
            case group_op::join: {
              scoped_span s(spans, "group.join", parent);
              groups.join(k_group_scope, op.group, op.site);
              break;
            }
            case group_op::leave: {
              scoped_span s(spans, "group.leave", parent);
              groups.leave(k_group_scope, op.group, op.site);
              break;
            }
            case group_op::stats:
              (void)groups.stats(k_group_scope, op.group);
              break;
          }
        }
      }
      spans.end(parent);
      res.set("group.join_us.p50", median(spans.durations_us("group.join")), "us");
      res.set("group.leave_us.p50", median(spans.durations_us("group.leave")), "us");
    }
  }

  h.reset();
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace perfbench
