#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcast::net {
namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void chaos_sleep(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

line_server::line_server(server_config config, handler_fn handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  if (config_.workers == 0) {
    throw std::invalid_argument("line_server: workers must be >= 1");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("line_server: queue_capacity must be >= 1");
  }
  auto listener = listen_loopback(config_.port);
  listen_fd_ = std::move(listener.fd);
  port_ = listener.port;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("line_server: pipe failed");
  }
  wake_read_ = unique_fd(pipe_fds[0]);
  wake_write_ = unique_fd(pipe_fds[1]);

  started_ = std::chrono::steady_clock::now();
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

line_server::~line_server() {
  shutdown();
  wait();
}

server_stats line_server::stats() const {
  server_stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.deadline_closes = deadline_closes_.load(std::memory_order_relaxed);
  s.drain_forced = drain_forced_.load(std::memory_order_relaxed);
  s.chaos_injected = chaos_injected_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
  }
  s.queue_capacity = config_.queue_capacity;
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  return s;
}

void line_server::shutdown() {
  if (draining_.exchange(true)) return;
  if (config_.drain_deadline_ms >= 0) {
    drain_deadline_ns_.store(
        now_ns() + static_cast<std::int64_t>(config_.drain_deadline_ms) *
                       1000000,
        std::memory_order_release);
  }
  // One byte down the self-pipe pops the acceptor out of poll().
  if (wake_write_.valid()) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &b, 1);
  }
  queue_cv_.notify_all();
}

bool line_server::drain_expired() const {
  const std::int64_t deadline =
      drain_deadline_ns_.load(std::memory_order_acquire);
  return deadline != 0 && now_ns() >= deadline;
}

void line_server::wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
}

void line_server::accept_loop() {
  for (;;) {
    pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_.get();
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_read_.get();
    pfds[1].events = POLLIN;
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (draining_.load(std::memory_order_acquire)) break;
    if ((pfds[0].revents & POLLIN) == 0) continue;

    unique_fd conn(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;

    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() < config_.queue_capacity) {
        pending_conn pc;
        pc.fd = std::move(conn);
        // Accept order indexes the chaos schedule; assigned only to
        // admitted connections so rejections do not shift the schedule.
        pc.index = accepted_.load(std::memory_order_relaxed);
        pc.enqueued = std::chrono::steady_clock::now();
        queue_.push_back(std::move(pc));
        obs::gauge_max(obs::gauge::svc_queue_depth_peak, queue_.size());
        enqueued = true;
      }
    }
    if (enqueued) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_connections_accepted);
      queue_cv_.notify_one();
    } else {
      // Admission control: the backlog is at capacity, so this connection
      // is answered with a typed overload line and closed, not queued.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_connections_rejected);
      send_all(conn.get(), config_.overload_response + "\n");
    }
  }
  // Refuse further connects at the kernel level while workers drain.
  listen_fd_.reset();
}

void line_server::worker_loop() {
  for (;;) {
    pending_conn pc;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (draining_.load(std::memory_order_acquire)) return;
        continue;
      }
      pc = std::move(queue_.front());
      queue_.pop_front();
    }
    if (drain_expired()) {
      // Past the drain bound: queued connections are cut, not served.
      drain_forced_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_drain_forced);
      continue;  // pc.fd closes here
    }
    const std::uint64_t queue_wait_ns = elapsed_ns(pc.enqueued);
    obs::record(obs::histogram::svc_queue_wait_ns, queue_wait_ns);
    const std::size_t now_inflight =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::gauge_max(obs::gauge::svc_inflight_peak, now_inflight);
    serve_connection(std::move(pc.fd), pc.index, queue_wait_ns);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool line_server::write_response(int fd, const std::string& line,
                                 std::uint64_t conn_index,
                                 std::uint64_t op_index) {
  const chaos_engine* chaos = config_.chaos.get();
  if (chaos != nullptr) {
    const fault_decision fault = chaos->write_fault(conn_index, op_index);
    if (fault.kind != fault_kind::none) {
      chaos_injected_.fetch_add(1, std::memory_order_relaxed);
      if (obs::access_entry* entry = obs::access_current()) {
        entry->chaos = true;
      }
    }
    switch (fault.kind) {
      case fault_kind::truncate: {
        // A prefix of the line, then close: the client must never parse
        // the partial frame as a response (its connection dies with it).
        obs::add(obs::counter::svc_chaos_truncates);
        const std::size_t cut = std::max<std::size_t>(
            1, static_cast<std::size_t>(fault.cut_fraction *
                                        static_cast<double>(line.size())));
        send_all_within(fd, std::string_view(line).substr(0, cut),
                        config_.write_deadline_ms);
        return false;
      }
      case fault_kind::stall: {
        // Slow but byte-correct: prefix, pause, remainder.
        obs::add(obs::counter::svc_chaos_stalls);
        const std::size_t cut = std::max<std::size_t>(
            1, static_cast<std::size_t>(fault.cut_fraction *
                                        static_cast<double>(line.size())));
        if (!send_all_within(fd, std::string_view(line).substr(0, cut),
                             config_.write_deadline_ms)) {
          return false;
        }
        chaos_sleep(fault.sleep_ms);
        return send_all_within(fd, std::string_view(line).substr(cut),
                               config_.write_deadline_ms);
      }
      case fault_kind::delay:
        obs::add(obs::counter::svc_chaos_delays);
        chaos_sleep(fault.sleep_ms);
        break;
      default:
        break;
    }
  }
  if (!send_all_within(fd, line, config_.write_deadline_ms)) {
    // Either the peer vanished or it stopped reading past the deadline;
    // both end the connection. Only the deadline case is a server-side
    // robustness event worth counting.
    deadline_closes_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::counter::svc_deadline_exceeded);
    return false;
  }
  return true;
}

void line_server::serve_connection(unique_fd conn, std::uint64_t conn_index,
                                   std::uint64_t queue_wait_ns) {
  const chaos_engine* chaos = config_.chaos.get();
  if (chaos != nullptr) {
    const fault_decision fault = chaos->accept_fault(conn_index);
    if (fault.kind == fault_kind::drop) {
      chaos_injected_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_chaos_drops);
      return;  // close before the first byte: the typed "silent drop"
    }
    if (fault.kind == fault_kind::reset) {
      chaos_injected_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_chaos_resets);
      arm_reset_on_close(conn.get());
      return;  // close() now sends RST
    }
  }

  line_reader reader(conn.get(), config_.max_line_bytes);
  std::string line;
  std::uint64_t op_index = 0;
  for (;;) {
    if (draining_.load(std::memory_order_acquire) && drain_expired()) {
      drain_forced_.fetch_add(1, std::memory_order_relaxed);
      obs::add(obs::counter::svc_drain_forced);
      return;
    }
    const line_reader::status st =
        reader.read_line(line, config_.idle_poll_ms, config_.line_deadline_ms);
    switch (st) {
      case line_reader::status::timeout:
        // Idle tick. A draining server says goodbye to idle connections
        // at once; one mid-line keeps its grace until the drain deadline,
        // then is cut and counted (a trickler cannot outlive the bound —
        // read_line's budget guarantees we get back here each tick).
        if (draining_.load(std::memory_order_acquire)) {
          if (!reader.has_partial()) return;
          if (drain_expired()) {
            drain_forced_.fetch_add(1, std::memory_order_relaxed);
            obs::add(obs::counter::svc_drain_forced);
            return;
          }
        }
        continue;
      case line_reader::status::closed:
      case line_reader::status::error:
        return;
      case line_reader::status::overlong:
        obs::add(obs::counter::svc_lines_oversized);
        send_all_within(conn.get(), config_.overlong_response + "\n",
                        config_.write_deadline_ms);
        return;
      case line_reader::status::deadline:
        // Slow loris: the line started but never finished. Typed goodbye.
        deadline_closes_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs::counter::svc_deadline_exceeded);
        send_all_within(conn.get(), config_.deadline_response + "\n",
                        config_.write_deadline_ms);
        return;
      case line_reader::status::line:
        break;
    }

    bool read_chaos = false;
    if (chaos != nullptr) {
      const fault_decision fault = chaos->read_fault(conn_index, op_index);
      if (fault.kind == fault_kind::delay) {
        read_chaos = true;
        chaos_injected_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs::counter::svc_chaos_delays);
        chaos_sleep(fault.sleep_ms);
      }
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::counter::svc_requests);

    // Request identity: a deterministic id minted from (seed, accept
    // index, op index) keys this request's spans and access-log record.
    // The scope lives for handler + write so every span lands on it; the
    // service layers annotate the entry through obs::access_current().
    const std::uint64_t trace_id =
        obs::trace_request_id(config_.trace_seed, conn_index, op_index);
    obs::trace_scope trace_guard(obs::trace_context{trace_id, 0});
    obs::access_begin(trace_id);
    if (obs::access_entry* entry = obs::access_current()) {
      entry->bytes_in = line.size();
      entry->chaos = read_chaos;
      // Only the first request waited for a worker; later ones on the
      // same connection are read by the worker that already owns it.
      if (op_index == 0) entry->queue_wait_ns = queue_wait_ns;
    }

    const auto begun = std::chrono::steady_clock::now();
    std::string response;
    {
      obs::span request_span("request");
      try {
        response = handler_(line);
      } catch (...) {
        obs::add(obs::counter::svc_responses_error);
        response = config_.internal_error_response;
      }
    }
    const std::uint64_t handler_ns = elapsed_ns(begun);
    obs::record(obs::histogram::svc_request_ns, handler_ns);

    const auto write_begun = std::chrono::steady_clock::now();
    const bool written =
        write_response(conn.get(), response + "\n", conn_index, op_index);
    const std::uint64_t write_ns = elapsed_ns(write_begun);
    obs::record(obs::histogram::svc_write_ns, write_ns);
    if (obs::access_entry* entry = obs::access_current()) {
      entry->compute_ns = handler_ns;
      entry->write_ns = write_ns;
      entry->bytes_out = response.size() + 1;
      entry->total_ns = elapsed_ns(begun);
    }
    obs::access_finish();
    if (!written) return;
    ++op_index;
  }
}

}  // namespace mcast::net
