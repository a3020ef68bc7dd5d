// Micro-benchmarks (google-benchmark) for the primitives every figure's
// Monte-Carlo loop is built from: BFS, delivery-tree growth, receiver
// sampling, k-ary index arithmetic, RNG throughput, exact-formula
// evaluation and the affinity chain move; Table 1's all-pairs pass and the
// MBone build — plus the before/after pair for the workspace + spt_cache
// hot path (bm_mc_repeated_source_*), whose items/sec ratio is the
// headline speedup in docs/performance.md.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "analysis/kary_exact.hpp"
#include "analysis/reachability.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/workspace.hpp"
#include "multicast/affinity.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"
#include "multicast/spt_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "topo/cache.hpp"
#include "topo/catalog.hpp"
#include "topo/kary.hpp"
#include "topo/transit_stub.hpp"

// Global allocation counter so benchmarks can report allocations per
// sample. Replacing operator new is only safe binary-wide, so this lives
// in the bench executable and nowhere near the libraries.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// free is the matching release of the malloc-backed operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace mcast;

const graph& ts1000_graph() {
  static const graph g = make_transit_stub(ts1000_params(), 1);
  return g;
}

void bm_bfs_ts1000(benchmark::State& state) {
  const graph& g = ts1000_graph();
  rng gen(1);
  for (auto _ : state) {
    const auto d = bfs_distances(g, static_cast<node_id>(gen.below(g.node_count())));
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(bm_bfs_ts1000);

void bm_delivery_tree_ts1000(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const source_tree tree(g, 0);
  const auto universe = all_sites_except(g, 0);
  rng gen(2);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  delivery_tree_builder builder(tree);
  for (auto _ : state) {
    builder.reset();
    for (node_id v : sample_with_replacement(universe, m, gen)) {
      builder.add_receiver(v);
    }
    benchmark::DoNotOptimize(builder.link_count());
  }
}
BENCHMARK(bm_delivery_tree_ts1000)->Arg(8)->Arg(64)->Arg(512);

void bm_sample_distinct(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const auto universe = all_sites_except(g, 0);
  rng gen(3);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto s = sample_distinct(universe, m, gen);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(bm_sample_distinct)->Arg(16)->Arg(256);

void bm_kary_distance(benchmark::State& state) {
  const kary_shape shape(2, 12);
  rng gen(4);
  const std::uint64_t total = shape.node_count();
  for (auto _ : state) {
    const node_id a = static_cast<node_id>(gen.below(total));
    const node_id b = static_cast<node_id>(gen.below(total));
    benchmark::DoNotOptimize(shape.distance(a, b));
  }
}
BENCHMARK(bm_kary_distance);

void bm_rng_below(benchmark::State& state) {
  rng gen(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.below(12345));
  }
}
BENCHMARK(bm_rng_below);

void bm_kary_exact_formula(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(kary_tree_size_leaves(2, 17, 31337.0));
  }
}
BENCHMARK(bm_kary_exact_formula);

void bm_reachability_profile(benchmark::State& state) {
  const graph& g = ts1000_graph();
  rng gen(6);
  for (auto _ : state) {
    const auto p = reachability_from(g, static_cast<node_id>(gen.below(g.node_count())));
    benchmark::DoNotOptimize(p.total_sites());
  }
}
BENCHMARK(bm_reachability_profile);

// Before/after pair for the PR's hot-path work. Both run the same
// repeated-source Monte-Carlo inner loop on ts1000 (sources drawn with
// replacement from a small pool, m receivers with replacement per sample,
// delivery-tree size + unicast total per sample — exactly the core/runner
// sample). "seed" allocates everything per sample the way the pre-workspace
// code did; "cached" uses the traversal workspace, the spt_cache and the
// reusable builder/sample buffers. items/sec == samples/sec.

constexpr std::size_t kMcSourcePool = 16;
constexpr std::size_t kMcGroupSize = 32;

std::vector<node_id> mc_source_pool(const graph& g) {
  rng gen(42);
  std::vector<node_id> pool(kMcSourcePool);
  for (node_id& s : pool) s = static_cast<node_id>(gen.below(g.node_count()));
  return pool;
}

void bm_mc_repeated_source_seed(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const std::vector<node_id> pool = mc_source_pool(g);
  rng gen(8);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const node_id source = pool[gen.below(pool.size())];
    const source_tree tree(g, source);
    const auto universe = all_sites_except(g, source);
    delivery_tree_builder builder(tree);
    std::uint64_t path_total = 0;
    for (node_id v : sample_with_replacement(universe, kMcGroupSize, gen)) {
      builder.add_receiver(v);
      path_total += tree.distance(v);
    }
    benchmark::DoNotOptimize(builder.link_count());
    benchmark::DoNotOptimize(path_total);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_sample"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(bm_mc_repeated_source_seed);

void bm_mc_repeated_source_cached(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const std::vector<node_id> pool = mc_source_pool(g);
  rng gen(8);
  traversal_workspace ws;
  spt_cache cache(64);
  std::vector<node_id> universe;
  std::vector<node_id> sample;
  std::optional<delivery_tree_builder> builder;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  // Hit/miss accounting comes from the obs registry (the cache reports
  // there as it runs) rather than from bench-side bookkeeping.
  const obs::metrics_snapshot obs_before = obs::snapshot();
  for (auto _ : state) {
    const node_id source = pool[gen.below(pool.size())];
    const auto spt = cache.get(g, source, ws);
    universe.clear();
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (v != source) universe.push_back(v);
    }
    if (builder) {
      builder->rebind(*spt);
    } else {
      builder.emplace(*spt);
    }
    sample_with_replacement_into(universe, kMcGroupSize, gen, sample);
    std::uint64_t path_total = 0;
    for (node_id v : sample) {
      builder->add_receiver(v);
      path_total += spt->distance(v);
    }
    benchmark::DoNotOptimize(builder->link_count());
    benchmark::DoNotOptimize(path_total);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_sample"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      static_cast<double>(state.iterations()));
  if (obs::compiled_in) {
    const obs::metrics_snapshot obs_after = obs::snapshot();
    const double hits =
        static_cast<double>(obs_after.at(obs::counter::spt_cache_hits) -
                            obs_before.at(obs::counter::spt_cache_hits));
    const double misses =
        static_cast<double>(obs_after.at(obs::counter::spt_cache_misses) -
                            obs_before.at(obs::counter::spt_cache_misses));
    state.counters["cache_hit_rate"] = benchmark::Counter(
        hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
  }
}
BENCHMARK(bm_mc_repeated_source_cached);

// The same loop with the obs registry runtime-disabled: the in-binary
// approximation of the MCAST_OBS_DISABLED A/B (the real compile-time
// comparison is CI's cross-build job). items/sec here vs the instrumented
// bench above bounds the observable hook overhead on the hot path.
void bm_mc_repeated_source_cached_obs_off(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const std::vector<node_id> pool = mc_source_pool(g);
  rng gen(8);
  traversal_workspace ws;
  spt_cache cache(64);
  std::vector<node_id> universe;
  std::vector<node_id> sample;
  std::optional<delivery_tree_builder> builder;
  obs::set_enabled(false);
  for (auto _ : state) {
    const node_id source = pool[gen.below(pool.size())];
    const auto spt = cache.get(g, source, ws);
    universe.clear();
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (v != source) universe.push_back(v);
    }
    if (builder) {
      builder->rebind(*spt);
    } else {
      builder.emplace(*spt);
    }
    sample_with_replacement_into(universe, kMcGroupSize, gen, sample);
    std::uint64_t path_total = 0;
    for (node_id v : sample) {
      builder->add_receiver(v);
      path_total += spt->distance(v);
    }
    benchmark::DoNotOptimize(builder->link_count());
    benchmark::DoNotOptimize(path_total);
  }
  obs::set_enabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_mc_repeated_source_cached_obs_off);

// Raw hook costs, for the overhead table in docs/observability.md.
void bm_obs_counter_add(benchmark::State& state) {
  for (auto _ : state) {
    obs::add(obs::counter::edges_scanned);
  }
}
BENCHMARK(bm_obs_counter_add);

void bm_obs_histogram_record(benchmark::State& state) {
  std::uint64_t v = 0;
  for (auto _ : state) {
    obs::record(obs::histogram::visited_per_pass, ++v);
  }
}
BENCHMARK(bm_obs_histogram_record);

// The workspace alone (no memoization): same BFS every iteration, scratch
// reused across passes. Isolates the epoch-reset win from the cache win.
void bm_bfs_ts1000_workspace(benchmark::State& state) {
  const graph& g = ts1000_graph();
  rng gen(1);
  traversal_workspace ws;
  std::vector<hop_count> dist;
  for (auto _ : state) {
    const auto& d = bfs_distances(
        g, static_cast<node_id>(gen.below(g.node_count())), ws, dist);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(bm_bfs_ts1000_workspace);

// Table 1's exact path statistics on ts1000: average path length and
// diameter from one all-pairs pass (64-source bit-parallel BFS batches).
void bm_all_pairs_ts1000(benchmark::State& state) {
  const graph& g = ts1000_graph();
  for (auto _ : state) {
    const table1_row row = summarize_network(g);
    benchmark::DoNotOptimize(row.avg_path_length);
  }
}
BENCHMARK(bm_all_pairs_ts1000)->Unit(benchmark::kMillisecond);

// The MBone entry table1 and fig1 build at budget 1500: a 4500-node Waxman
// substrate, then overlay hop distances for 750 routers and the tunnel MST.
void bm_mbone_build_1500(benchmark::State& state) {
  for (auto _ : state) {
    const graph g = build_catalog_topology("MBone", 7, 1500);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(bm_mbone_build_1500)->Unit(benchmark::kMillisecond);

void bm_affinity_chain(benchmark::State& state) {
  const kary_shape shape(2, 10);
  static const graph g = shape.to_graph();
  const source_tree tree(g, 0);
  const auto universe = all_sites_except(g, 0);
  const kary_distance_oracle oracle(shape);
  affinity_chain_params params;
  params.beta = 1.0;
  params.burn_in_sweeps = 2;
  params.sample_sweeps = 1;
  params.measurements = 1;
  rng gen(7);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sample_affinity_tree_size(tree, universe, n, oracle, params, gen)
            .mean_tree_size);
  }
}
BENCHMARK(bm_affinity_chain)->Arg(16)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
