// line_server — a bounded-queue, thread-per-worker TCP line server.
//
// Concurrency model (deliberately boring):
//
//   acceptor thread ──accept──▶ bounded connection queue ──pop──▶ K workers
//
// One acceptor accepts loopback connections and pushes them onto a
// bounded FIFO. When the queue is full the server does NOT buffer
// unboundedly and does NOT silently drop: it writes one `overload_response`
// line to the newcomer, closes it, and counts the rejection
// (svc.connections_rejected). That is the whole admission-control story —
// load beyond `queue_capacity + workers` is refused with a typed error
// the client can parse and retry on.
//
// Each worker owns one connection at a time and serves it to completion:
// read a line, call the handler, write the response line, repeat until
// the peer closes. The handler is user code; if it throws, the worker
// answers with `internal_error_response` and keeps the connection (the
// failure of one request must not take down the session). Frames longer
// than `max_line_bytes` get `overlong_response` and the connection is
// closed — the reader cannot resynchronize mid-frame.
//
// shutdown() is graceful but bounded: the acceptor closes the listen
// socket (new connects are refused by the kernel), workers finish the
// request in hand, drain the queue, and exit; wait() joins everyone.
// Workers poll reads with `idle_poll_ms` so a draining server parts with
// idle keep-alive connections within one poll tick, and any connection
// still alive `drain_deadline_ms` after shutdown() is force-closed and
// counted — one stalled client cannot hold the process hostage.
//
// Robustness guards (docs/resilience.md): a partial request line must
// complete within `line_deadline_ms` (slow-loris), a response write must
// complete within `write_deadline_ms` (stalled reader), and both closes
// are typed (`deadline_response`) and counted in svc.deadline_exceeded.
// An optional chaos_engine (net/chaos.hpp) injects deterministic
// drops/resets/delays/stalls/truncations for resilience testing.
//
// All activity is mirrored into the obs registry under svc.* so the
// `metrics` endpoint and BENCH_service.json see accepted/rejected counts,
// queue-depth and inflight peaks, and request/queue-wait latencies.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/socket.hpp"

namespace mcast::net {

struct server_config {
  std::uint16_t port = 0;              ///< 0 = pick an ephemeral port
  std::size_t workers = 4;             ///< serving threads
  std::size_t queue_capacity = 64;     ///< pending-connection bound
  std::size_t max_line_bytes = 1 << 20;
  int idle_poll_ms = 100;              ///< worker read-poll tick
  /// Slow-loris guard: once a request line has started arriving, its
  /// newline must follow within this bound or the connection is answered
  /// with `deadline_response` and closed. < 0 disables.
  int line_deadline_ms = 30000;
  /// Slow-reader guard: a response write that cannot complete within this
  /// bound (peer not reading) abandons the connection. < 0 disables.
  int write_deadline_ms = 30000;
  /// Drain bound: connections that have not finished this many ms after
  /// shutdown() are force-closed (counted in stats().drain_forced).
  /// < 0 waits for clients indefinitely (the pre-deadline behavior).
  int drain_deadline_ms = 5000;
  /// Lines written verbatim (newline appended) for the server-side
  /// failure modes. The service layer sets these to typed JSON errors.
  std::string overload_response = "overloaded";
  std::string overlong_response = "overlong";
  std::string internal_error_response = "internal_error";
  std::string deadline_response = "deadline_exceeded";
  /// Deterministic fault injection (net/chaos.hpp); null = faults off.
  /// Shared and const: one schedule serves every worker thread.
  std::shared_ptr<const chaos_engine> chaos;
  /// Seed for the per-request trace ids the server mints (see
  /// obs::trace_request_id): a fixed seed reproduces every request's id
  /// because ids derive only from (seed, accept index, op index).
  std::uint64_t trace_seed = 0;
};

struct server_stats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t requests = 0;
  std::uint64_t deadline_closes = 0;  ///< slow-loris / stalled-reader closes
  std::uint64_t drain_forced = 0;     ///< connections cut at the drain bound
  std::uint64_t chaos_injected = 0;   ///< faults the chaos shim injected
  std::size_t queue_depth = 0;   ///< connections waiting right now
  std::size_t queue_capacity = 0;  ///< the configured pending-connection bound
  std::size_t inflight = 0;      ///< connections being served right now
  double uptime_seconds = 0.0;
};

class line_server {
 public:
  using handler_fn = std::function<std::string(const std::string&)>;

  /// Binds and starts the acceptor + worker threads immediately.
  /// Throws std::runtime_error if the port cannot be bound.
  line_server(server_config config, handler_fn handler);
  ~line_server();

  line_server(const line_server&) = delete;
  line_server& operator=(const line_server&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  server_stats stats() const;

  /// Stop accepting, serve what is queued and in flight, then let the
  /// threads exit. Idempotent; returns without waiting (see wait()).
  void shutdown();

  /// Blocks until every thread has exited. Implies shutdown() happened.
  void wait();

 private:
  struct pending_conn {
    unique_fd fd;
    std::uint64_t index = 0;  ///< accept order; keys the chaos schedule
    std::chrono::steady_clock::time_point enqueued;
  };

  void accept_loop();
  void worker_loop();
  /// Serves one connection; `queue_wait_ns` is how long it sat in the
  /// accept queue, reported on its first request's access-log record.
  void serve_connection(unique_fd conn, std::uint64_t conn_index,
                        std::uint64_t queue_wait_ns);
  /// Writes one response line, applying write-side chaos and the write
  /// deadline. Returns false when the connection must close.
  bool write_response(int fd, const std::string& line, std::uint64_t conn_index,
                      std::uint64_t op_index);
  /// True once the drain deadline has passed (always false before
  /// shutdown() or with drain_deadline_ms < 0).
  bool drain_expired() const;

  server_config config_;
  handler_fn handler_;
  std::uint16_t port_ = 0;
  unique_fd listen_fd_;
  unique_fd wake_read_, wake_write_;  // self-pipe: unblocks the acceptor poll

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<pending_conn> queue_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> deadline_closes_{0};
  std::atomic<std::uint64_t> drain_forced_{0};
  std::atomic<std::uint64_t> chaos_injected_{0};
  std::atomic<std::size_t> inflight_{0};
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::int64_t> drain_deadline_ns_{0};  ///< 0 = not draining

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex join_mu_;
  bool joined_ = false;  // guarded by join_mu_
};

}  // namespace mcast::net
