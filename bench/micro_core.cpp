// Micro-benchmarks (google-benchmark) for the primitives every figure's
// Monte-Carlo loop is built from: BFS, delivery-tree growth, receiver
// sampling, k-ary index arithmetic, RNG throughput, exact-formula
// evaluation and the affinity chain move; Table 1's all-pairs pass and the
// MBone build — plus the Monte-Carlo runner itself (bm_mc_measure_ts1000),
// whose samples/sec and allocations per sample docs/performance.md quotes.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/kary_exact.hpp"
#include "analysis/reachability.hpp"
#include "core/runner.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/workspace.hpp"
#include "multicast/affinity.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"
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

// The Monte-Carlo runner as the figures call it: measure_distinct_receivers
// on ts1000 with one thread, so each source's SPT is built once on the
// worker's workspace and serves every (group size x receiver set) sample.
// items/sec == samples/sec. Arg(1) runs with the obs registry
// runtime-disabled: the in-binary approximation of the MCAST_OBS_DISABLED
// A/B (the real compile-time comparison is CI's cross-build job), so the
// items/sec gap between the two args bounds the hook overhead.
void bm_mc_measure_ts1000(benchmark::State& state) {
  const graph& g = ts1000_graph();
  const std::vector<std::uint64_t> group_sizes = {8, 32, 128};
  monte_carlo_params params;
  params.sources = 16;
  params.receiver_sets = 32;
  params.threads = 1;
  const bool obs_off = state.range(0) != 0;
  if (obs_off) obs::set_enabled(false);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const auto rows = measure_distinct_receivers(g, group_sizes, params);
    benchmark::DoNotOptimize(rows.data());
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  if (obs_off) obs::set_enabled(true);
  const auto samples = static_cast<std::int64_t>(
      params.sources * params.receiver_sets * group_sizes.size());
  state.SetItemsProcessed(state.iterations() * samples);
  state.counters["allocs_per_sample"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * samples));
}
BENCHMARK(bm_mc_measure_ts1000)->ArgName("obs_off")->Arg(0)->Arg(1);

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

// The workspace BFS: same traversal as bm_bfs_ts1000, scratch reused
// across passes.
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
