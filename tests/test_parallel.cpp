// parallel_for (core/parallel.hpp): the fork-join executor behind the
// Monte-Carlo runner and the lab sweep. Every index runs exactly once,
// one worker runs inline, each worker owns one State built on its own
// thread, and a throwing index surfaces only after the join.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace mcast {
namespace {

struct no_state {};

TEST(parallel, resolve_thread_count) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(parallel, every_index_runs_exactly_once) {
  for (std::size_t count : {0u, 1u, 5u, 1000u}) {
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for<no_state>(count, threads, [&](no_state&, std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "count=" << count << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(parallel, one_worker_runs_on_the_calling_thread) {
  const std::thread::id caller = std::this_thread::get_id();
  // threads == 1, and count == 1 with threads to spare.
  for (const auto& [count, threads] :
       {std::pair<std::size_t, std::size_t>{5, 1}, {1, 8}}) {
    std::size_t runs = 0;
    parallel_for<no_state>(count, threads, [&](no_state&, std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
    });
    EXPECT_EQ(runs, count);
  }
}

// Records how many instances were built and on which thread each lives.
struct tracked_state {
  static inline std::atomic<std::size_t> constructed{0};
  std::thread::id owner = std::this_thread::get_id();
  tracked_state() { constructed.fetch_add(1); }
};

TEST(parallel, one_state_per_worker_on_its_own_thread) {
  for (std::size_t count : {1u, 3u, 1000u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      tracked_state::constructed = 0;
      std::atomic<std::size_t> foreign{0};
      parallel_for<tracked_state>(
          count, threads, [&](tracked_state& s, std::size_t) {
            if (s.owner != std::this_thread::get_id()) foreign.fetch_add(1);
          });
      EXPECT_LE(tracked_state::constructed.load(), std::min(count, threads))
          << "count=" << count << " threads=" << threads;
      EXPECT_EQ(foreign.load(), 0u);
    }
  }
}

TEST(parallel, throwing_index_is_rethrown_at_one_worker) {
  EXPECT_THROW(parallel_for<no_state>(10, 1,
                                      [](no_state&, std::size_t i) {
                                        if (i == 3) {
                                          throw std::runtime_error("index 3");
                                        }
                                      }),
               std::runtime_error);
}

TEST(parallel, throwing_index_is_rethrown_after_every_other_index_ran) {
  constexpr std::size_t count = 200;
  std::vector<std::atomic<int>> hits(count);
  try {
    parallel_for<no_state>(count, 4, [&](no_state&, std::size_t i) {
      if (i == 3) throw std::runtime_error("index 3");
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "the exception of index 3 was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (i != 3) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace mcast
