// Fork-join over an index range — the one executor behind the Monte-Carlo
// runner's source tasks (core/runner.cpp) and the experiment engine's
// sweep points (lab/registry.cpp).
//
// Workers claim indices in ascending order through one atomic counter, so
// which worker runs which index depends on scheduling. Callers keep their
// results independent of that by writing each index into its own slot and
// combining the slots in index order afterwards.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mcast {

/// Resolves a requested worker-thread count: 0 means "hardware
/// concurrency", and the result is never below 1.
inline std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Runs `body(state, i)` for every i in [0, count) on
/// min(count, resolve_thread_count(threads)) workers. Each worker
/// default-constructs one `State` on its own thread, reuses it for every
/// index it claims and destroys it there before the join. With one worker
/// everything runs inline on the calling thread and an exception propagates
/// at once; with more, the remaining indices still run and the first
/// exception is rethrown after every worker has joined.
template <class State, class Body>
void parallel_for(std::size_t count, std::size_t threads, Body&& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(count, resolve_thread_count(threads));
  if (workers == 1) {
    State state;
    for (std::size_t i = 0; i < count; ++i) body(state, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    State state;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(state, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mcast
