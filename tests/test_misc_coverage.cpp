// Cross-module coverage: paths not exercised elsewhere — the affinity
// chain over a general-graph distance oracle, file-backed edge-list I/O,
// and sampled-vs-exact metric agreement on irregular graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "multicast/affinity.hpp"
#include "multicast/receivers.hpp"
#include "topo/waxman.hpp"
#include "proc_util.hpp"

namespace mcast {
namespace {

TEST(misc, affinity_chain_on_general_graph_oracle) {
  // Section 5 on a non-tree topology: clustering must still shrink the
  // delivery tree, with distances served by cached BFS rows.
  waxman_params p;
  p.nodes = 150;
  const graph g = make_waxman(p, 21);
  const source_tree tree(g, 0);
  const std::vector<node_id> universe = all_sites_except(g, 0);
  const graph_distance_oracle oracle(g);

  auto run = [&](double beta) {
    affinity_chain_params params;
    params.beta = beta;
    params.burn_in_sweeps = 20;
    params.sample_sweeps = 8;
    rng gen(5);
    return sample_affinity_tree_size(tree, universe, 18, oracle, params, gen)
        .mean_tree_size;
  };
  const double clustered = run(8.0);
  const double uniform = run(0.0);
  const double spread = run(-8.0);
  EXPECT_LT(clustered, uniform);
  EXPECT_GT(spread, uniform);
}

TEST(misc, edge_list_file_round_trip) {
  waxman_params p;
  p.nodes = 40;
  graph original = make_waxman(p, 9);
  original.set_name("file-fixture");

  const std::string path = testproc::temp_path("mcast_io_fixture.txt");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_edge_list(out, original);
  }
  const graph loaded = load_edge_list(path, "file-fixture");
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.edges(), original.edges());
  EXPECT_EQ(loaded.name(), "file-fixture");
  std::remove(path.c_str());
}

TEST(misc, load_edge_list_default_name_is_path) {
  const std::string path = testproc::temp_path("mcast_io_named.txt");
  {
    std::ofstream out(path);
    out << "2\n0 1\n";
  }
  EXPECT_EQ(load_edge_list(path).name(), path);
  std::remove(path.c_str());
}

TEST(misc, sampled_path_length_close_to_exact_on_irregular_graph) {
  waxman_params p;
  p.nodes = 300;
  const graph g = make_waxman(p, 11);
  const double exact = average_path_length_exact(g);
  rng gen(2);
  const double sampled = average_path_length_sampled(
      g, 64, [&gen](std::size_t n) { return gen.below(n); });
  EXPECT_NEAR(sampled / exact, 1.0, 0.05);
}

TEST(misc, summarize_network_threshold_consistency) {
  // The same graph summarized exactly and via sampling must agree on the
  // structural columns and approximately on the path columns.
  waxman_params p;
  p.nodes = 250;
  const graph g = make_waxman(p, 13);
  const table1_row exact = summarize_network(g, /*exact_threshold=*/1000);
  const table1_row sampled = summarize_network(g, /*exact_threshold=*/10,
                                               /*samples=*/96, /*seed=*/4);
  EXPECT_EQ(exact.nodes, sampled.nodes);
  EXPECT_EQ(exact.links, sampled.links);
  EXPECT_DOUBLE_EQ(exact.avg_degree, sampled.avg_degree);
  EXPECT_NEAR(sampled.avg_path_length / exact.avg_path_length, 1.0, 0.06);
  EXPECT_LE(sampled.diameter, exact.diameter);
  EXPECT_GE(sampled.diameter, exact.diameter / 2);
}

}  // namespace
}  // namespace mcast
