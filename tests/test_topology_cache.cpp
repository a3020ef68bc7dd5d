// Topology-cache contracts: a cached build is byte-identical to a direct
// one (on and off the scaled path), LRU eviction respects the capacity
// bound and recency, concurrent misses on one key coalesce into a single
// build, and the stats counters add up. The 8-thread tests run under the
// tsan-obs CI job, so the locking here is exercised under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/components.hpp"
#include "topo/cache.hpp"
#include "topo/catalog.hpp"

namespace mcast {
namespace {

graph direct_build(const std::string& name, std::uint64_t seed,
                   node_id budget) {
  network_entry entry = find_network(name);
  if (budget > 0) {
    entry = scaled_networks({entry}, budget)[0];
  }
  return largest_component(entry.build(seed));
}

void expect_same_graph(const graph& a, const graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(topology_cache, matches_direct_build_native) {
  topology_cache cache(4);
  const auto cached = cache.get("ARPA", 7);
  expect_same_graph(*cached, direct_build("ARPA", 7, 0));
}

TEST(topology_cache, matches_direct_build_scaled) {
  topology_cache cache(4);
  const auto cached = cache.get("ts1000", 7, 300);
  expect_same_graph(*cached, direct_build("ts1000", 7, 300));
}

TEST(topology_cache, distinct_keys_are_distinct_entries) {
  topology_cache cache(8);
  const auto a = cache.get("r100", 7, 80);
  const auto b = cache.get("r100", 8, 80);   // different seed
  const auto c = cache.get("r100", 7, 100);  // different budget
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(topology_cache, repeated_get_hits_and_shares_the_graph) {
  topology_cache cache(4);
  const auto first = cache.get("ARPA", 7);
  const auto second = cache.get("ARPA", 7);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(topology_cache, lru_evicts_least_recently_used) {
  topology_cache cache(2);
  const auto a = cache.get("r100", 1, 80);
  const auto b = cache.get("r100", 2, 80);
  (void)cache.get("r100", 1, 80);  // touch a: b is now least recent
  const auto c = cache.get("r100", 3, 80);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // a stayed (recently touched) -> hit; b was evicted -> rebuild.
  const std::uint64_t misses_before = cache.stats().misses;
  const auto a2 = cache.get("r100", 1, 80);
  EXPECT_EQ(a.get(), a2.get());
  EXPECT_EQ(cache.stats().misses, misses_before);
  (void)cache.get("r100", 2, 80);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  // The evicted graph is still alive through our shared_ptr.
  EXPECT_GT(b->node_count(), 0u);
}

TEST(topology_cache, evicted_graph_outlives_eviction) {
  topology_cache cache(1);
  const auto a = cache.get("r100", 1, 80);
  const graph* raw = a.get();
  (void)cache.get("r100", 2, 80);  // evicts a's entry
  EXPECT_EQ(cache.size(), 1u);
  expect_same_graph(*raw, direct_build("r100", 1, 80));
}

TEST(topology_cache, clear_empties_but_keeps_handed_out_graphs) {
  topology_cache cache(4);
  const auto a = cache.get("ARPA", 7);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(a->node_count(), 0u);
}

TEST(topology_cache, concurrent_same_key_builds_once) {
  topology_cache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const graph>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&cache, &got, i] { got[i] = cache.get("ts1000", 7, 300); });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[0].get(), got[i].get()) << "thread " << i;
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(topology_cache, concurrent_mixed_keys_stay_consistent) {
  topology_cache cache(3);  // smaller than the working set: forces eviction
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, i] {
      for (int round = 0; round < 4; ++round) {
        const std::uint64_t seed = static_cast<std::uint64_t>((i + round) % 5);
        const auto g = cache.get("r100", seed, 80);
        ASSERT_GT(g->node_count(), 0u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 3u);
  const topology_cache::cache_stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * 4));
}

TEST(topology_cache, unknown_name_throws_and_leaves_no_entry) {
  topology_cache cache(4);
  EXPECT_THROW((void)cache.get("no-such-network", 7), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
  // The failed build must not wedge the key for later callers.
  EXPECT_THROW((void)cache.get("no-such-network", 7), std::invalid_argument);
}

TEST(topology_cache, tiny_nonzero_budget_throws) {
  topology_cache cache(4);
  EXPECT_THROW((void)cache.get("ts1000", 7, 32), std::invalid_argument);
}

TEST(topology_cache, shared_instance_is_a_singleton) {
  EXPECT_EQ(&shared_topology_cache(), &shared_topology_cache());
}

}  // namespace
}  // namespace mcast
