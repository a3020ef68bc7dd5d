// Differential suite locking down the hot-path machinery of the workspace
// layer: every reusable-scratch code path must be bit-identical to an
// independent in-test reference implementation AND to the one-shot public
// APIs, across the (scaled) paper topology catalog, randomized seeds,
// repeated interleaved sources and degraded views. Nothing here is
// statistical — every comparison is exact (==, including doubles).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "fault/degraded.hpp"
#include "fault/failure_model.hpp"
#include "graph/bfs.hpp"
#include "graph/dijkstra.hpp"
#include "graph/weights.hpp"
#include "graph/workspace.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"
#include "multicast/spt.hpp"
#include "sim/rng.hpp"
#include "topo/catalog.hpp"
#include "topo/kary.hpp"
#include "topo/transit_stub.hpp"

namespace mcast {
namespace {

using edge_ok = std::function<bool(node_id, node_id)>;

const edge_ok accept_all = [](node_id, node_id) { return true; };

// Independent reference BFS: plain queue, neighbors in adjacency (== id)
// order, marked-on-enqueue. Deliberately shares no code with the library.
bfs_tree ref_bfs(const graph& g, node_id source, const edge_ok& ok,
                 bool source_alive = true) {
  bfs_tree t;
  t.source = source;
  t.dist.assign(g.node_count(), unreachable);
  t.parent.assign(g.node_count(), invalid_node);
  if (!source_alive) return t;
  std::queue<node_id> q;
  t.dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const node_id v = q.front();
    q.pop();
    for (node_id w : g.neighbors(v)) {
      if (!ok(v, w)) continue;
      if (t.dist[w] == unreachable) {
        t.dist[w] = t.dist[v] + 1;
        t.parent[w] = v;
        q.push(w);
      }
    }
  }
  return t;
}

// Independent reference Dijkstra: textbook lazy-deletion priority_queue,
// strictly-better relaxation (ties keep the first parent).
weighted_tree ref_dijkstra(const graph& g, const edge_weights& weights,
                           node_id source, const edge_ok& ok,
                           bool source_alive = true) {
  weighted_tree t;
  t.source = source;
  t.dist.assign(g.node_count(), std::numeric_limits<double>::infinity());
  t.parent.assign(g.node_count(), invalid_node);
  if (!source_alive) return t;
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> pq;
  std::vector<char> settled(g.node_count(), 0);
  t.dist[source] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (settled[v]) continue;
    settled[v] = 1;
    for (node_id w : g.neighbors(v)) {
      if (!ok(v, w)) continue;
      const double candidate = d + weights.get(v, w);
      if (candidate < t.dist[w]) {
        t.dist[w] = candidate;
        t.parent[w] = v;
        pq.emplace(candidate, w);
      }
    }
  }
  return t;
}

void expect_same_bfs(const bfs_tree& a, const bfs_tree& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
}

void expect_same_weighted(const weighted_tree& a, const weighted_tree& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.dist, b.dist);  // exact double equality on purpose
  EXPECT_EQ(a.parent, b.parent);
}

// A ~100-node transit-stub graph: small enough for exhaustive diffing,
// wired enough for equal-cost paths (the tie-breaking cases that matter).
graph small_ts(std::uint64_t seed) {
  transit_stub_params p;
  p.transit_domains = 2;
  p.transit_domain_size = 4;
  p.stubs_per_transit_node = 3;
  p.stub_domain_size = 4;
  return make_transit_stub(p, seed);
}

// Deterministic, non-uniform weights so Dijkstra ties and orderings are
// actually exercised (all-1.0 would degenerate to BFS).
edge_weights varied_weights(const graph& g) {
  edge_weights w(g);
  w.assign([](node_id a, node_id b) {
    return 1.0 + static_cast<double>((a * 31 + b * 7) % 5);
  });
  return w;
}

TEST(workspace_diff, bfs_matches_reference_across_catalog) {
  traversal_workspace ws;  // one workspace across every network: rebinding
  bfs_tree out;            // to new sizes must not leak state
  for (const network_entry& entry : scaled_networks(paper_networks(), 400)) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const graph g = entry.build(seed);
      rng gen(seed * 101 + 7);
      std::vector<node_id> sources;
      for (int i = 0; i < 4; ++i) {
        sources.push_back(static_cast<node_id>(gen.below(g.node_count())));
      }
      sources.push_back(sources.front());  // repeated source, interleaved
      for (node_id s : sources) {
        const bfs_tree expected = ref_bfs(g, s, accept_all);
        expect_same_bfs(expected, bfs_from(g, s));  // one-shot wrapper
        expect_same_bfs(expected, bfs_from(g, s, ws, out));

        const traversal_result view = ws.run_bfs(g, s);
        ASSERT_EQ(view.source(), s);
        ASSERT_FALSE(view.visit_order().empty());
        EXPECT_EQ(view.visit_order().front(), s);
        EXPECT_EQ(view.reached_count(), expected.reached_count());
        for (node_id v = 0; v < g.node_count(); ++v) {
          EXPECT_EQ(view.dist(v), expected.dist[v]);
          EXPECT_EQ(view.parent(v), expected.parent[v]);
          EXPECT_EQ(view.reached(v), expected.dist[v] != unreachable);
        }

        std::vector<hop_count> dist_out;
        EXPECT_EQ(bfs_distances(g, s, ws, dist_out), expected.dist);
        EXPECT_EQ(bfs_distances(g, s), expected.dist);
      }
    }
  }
}

TEST(workspace_diff, dijkstra_matches_reference_across_catalog) {
  traversal_workspace ws;
  weighted_tree out;
  for (const network_entry& entry : scaled_networks(paper_networks(), 300)) {
    const graph g = entry.build(3);
    const edge_weights weights = varied_weights(g);
    rng gen(17);
    for (int i = 0; i < 3; ++i) {
      const node_id s = static_cast<node_id>(gen.below(g.node_count()));
      const weighted_tree expected = ref_dijkstra(g, weights, s, accept_all);
      expect_same_weighted(expected, dijkstra_from(g, weights, s));
      expect_same_weighted(expected, dijkstra_from(g, weights, s, ws, out));
    }
  }
}

TEST(workspace_diff, interleaved_graphs_share_one_workspace) {
  // Alternating passes over graphs of different sizes through the same
  // workspace: epoch tagging must isolate every pass, and the scratch must
  // stop growing once it has seen the largest graph.
  const graph g1 = small_ts(5);
  const graph g2 = kary_shape(3, 4).to_graph();
  traversal_workspace ws;
  bfs_tree out;
  rng gen(23);
  for (int round = 0; round < 20; ++round) {
    const graph& g = (round % 2 == 0) ? g1 : g2;
    const node_id s = static_cast<node_id>(gen.below(g.node_count()));
    expect_same_bfs(ref_bfs(g, s, accept_all), bfs_from(g, s, ws, out));
  }
  const std::uint64_t warm_grows = ws.grow_count();
  const std::uint64_t warm_passes = ws.pass_count();
  for (int round = 0; round < 20; ++round) {
    const graph& g = (round % 2 == 0) ? g1 : g2;
    const node_id s = static_cast<node_id>(gen.below(g.node_count()));
    expect_same_bfs(ref_bfs(g, s, accept_all), bfs_from(g, s, ws, out));
  }
  EXPECT_EQ(ws.grow_count(), warm_grows);  // warmed up: zero allocation growth
  EXPECT_EQ(ws.pass_count(), warm_passes + 20);
}

TEST(workspace_diff, degraded_traversals_match_reference) {
  const graph g = small_ts(11);
  const edge_weights weights = varied_weights(g);
  degraded_view view(g);
  view.apply(random_link_failures(g, 0.15, 77));
  const node_id dead = 3;
  view.fail_node(dead);

  const edge_ok masked = [&](node_id a, node_id b) { return view.usable(a, b); };
  traversal_workspace ws;
  bfs_tree bfs_out;
  weighted_tree dij_out;
  rng gen(31);
  for (int i = 0; i < 6; ++i) {
    const node_id s = static_cast<node_id>(gen.below(g.node_count()));
    const bool alive = view.node_alive(s);
    const bfs_tree expected = ref_bfs(g, s, masked, alive);
    expect_same_bfs(expected, bfs_from(view, s));
    expect_same_bfs(expected, bfs_from(view, s, ws, bfs_out));
    EXPECT_EQ(bfs_distances(view, s), expected.dist);

    const weighted_tree wexpected = ref_dijkstra(g, weights, s, masked, alive);
    expect_same_weighted(wexpected, dijkstra_from(view, weights, s));
    expect_same_weighted(wexpected, dijkstra_from(view, weights, s, ws, dij_out));
  }

  // A dead source reaches nothing — including itself.
  const bfs_tree from_dead = bfs_from(view, dead, ws, bfs_out);
  for (node_id v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(from_dead.dist[v], unreachable);
    EXPECT_EQ(from_dead.parent[v], invalid_node);
  }

  // Pristine view == pristine graph, bit for bit.
  view.clear();
  const node_id s = 42 % g.node_count();
  expect_same_bfs(bfs_from(g, s), bfs_from(view, s, ws, bfs_out));
}

TEST(workspace_diff, into_samplers_match_one_shot_and_restore_pool) {
  const graph g = small_ts(8);
  const auto universe = all_sites_except(g, 0);
  auto pool = universe;
  std::vector<node_id> out;
  rng one_shot_gen(91);
  rng into_gen(91);
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t m : {std::size_t{1}, std::size_t{5}, universe.size() / 2,
                          universe.size()}) {
      EXPECT_EQ(sample_distinct(universe, m, one_shot_gen),
                (sample_distinct_into(pool, m, into_gen, out), out));
      EXPECT_EQ(pool, universe);  // undo-swaps restored the pool exactly
      EXPECT_EQ(sample_with_replacement(universe, m, one_shot_gen),
                (sample_with_replacement_into(universe, m, into_gen, out), out));
    }
  }
}

TEST(workspace_diff, workspace_source_tree_ctor_matches_plain) {
  const graph g = small_ts(13);
  traversal_workspace ws;
  rng gen(3);
  for (int i = 0; i < 5; ++i) {
    const node_id s = static_cast<node_id>(gen.below(g.node_count()));
    const source_tree plain(g, s);
    const source_tree via_ws(g, s, ws);
    EXPECT_EQ(plain.raw().dist, via_ws.raw().dist);
    EXPECT_EQ(plain.raw().parent, via_ws.raw().parent);
  }
}

}  // namespace
}  // namespace mcast
