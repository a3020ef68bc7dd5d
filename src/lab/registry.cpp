#include "lab/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/cache.hpp"

namespace mcast::lab {

void registry::add(experiment e) {
  if (e.id.empty()) {
    throw std::logic_error("registry: experiment with empty id");
  }
  if (!e.run) {
    throw std::logic_error("registry: experiment '" + e.id +
                           "' has no run function");
  }
  if (find(e.id) != nullptr) {
    throw std::logic_error("registry: duplicate experiment id '" + e.id + "'");
  }
  experiments_.push_back(std::move(e));
}

const experiment* registry::find(const std::string& id) const noexcept {
  for (const experiment& e : experiments_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

namespace {

using steady = std::chrono::steady_clock;

std::uint64_t elapsed_ns(steady::time_point from, steady::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// The parallel_for state of a sweep: one worker's sched.* accounting,
// flushed when the worker retires.
struct sweep_worker {
  steady::time_point start = steady::now();
  std::uint64_t busy_ns = 0;
  std::uint64_t tasks = 0;

  ~sweep_worker() {
    obs::add(obs::counter::sched_busy_ns, busy_ns);
    obs::add(obs::counter::sched_worker_ns, elapsed_ns(start, steady::now()));
    obs::record(obs::histogram::sched_tasks_per_worker, tasks);
  }
};

}  // namespace

void context::sweep(std::size_t count, const sweep_fn& fn) {
  if (count == 0) return;
  const std::size_t workers = std::min(count, resolve_thread_count(threads_));
  obs::gauge_max(obs::gauge::sched_workers, workers);

  std::vector<recorder> parts(count);
  const steady::time_point join_start = steady::now();
  parallel_for<sweep_worker>(
      count, workers, [&](sweep_worker& w, std::size_t i) {
        // Probes are per point (a whole figure panel or Monte-Carlo study),
        // so the timestamps are noise next to the work they bracket.
        MCAST_OBS_SPAN("sweep_point");
        const steady::time_point start = steady::now();
        fn(i, parts[i]);
        const std::uint64_t ns = elapsed_ns(start, steady::now());
        w.busy_ns += ns;
        ++w.tasks;
        obs::add(obs::counter::sched_tasks);
        obs::record(obs::histogram::sched_task_ns, ns);
      });
  // Splice wait: how long the caller sits waiting for the workers before
  // it can stitch the per-point recorders back together in index order.
  if (workers > 1) {
    obs::add(obs::counter::sched_splice_wait_ns,
             elapsed_ns(join_start, steady::now()));
  }
  for (recorder& part : parts) rec_.splice(std::move(part));
}

std::shared_ptr<const graph> context::topology(const std::string& name,
                                               std::uint64_t seed,
                                               node_id budget) const {
  return shared_topology_cache().get(name, seed, budget);
}

}  // namespace mcast::lab
