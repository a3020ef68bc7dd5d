// Edge-list goldens for the Waxman and MBone generators. The generators
// are deterministic given (params, seed), and Table 1, Figure 1 and every
// catalog-driven experiment inherit their bytes, so any change to the
// edge set (an RNG stream shifted by one draw, a reordered loop, an
// inexact shortcut in the pair loop) must show up here as a diff.
//
// Regenerating after a *deliberate* generator change:
//   MCAST_REGEN_GOLDEN=1 ./test_topology_golden
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden_file.hpp"
#include "graph/components.hpp"
#include "topo/cache.hpp"
#include "topo/mbone.hpp"
#include "topo/waxman.hpp"

namespace mcast {
namespace {

// "nodes N edges E" then one "a b" line per edge, a < b, sorted.
std::string render(const graph& g) {
  std::ostringstream out;
  out << "nodes " << g.node_count() << " edges " << g.edge_count() << "\n";
  for (const edge& e : g.edges()) out << e.a << " " << e.b << "\n";
  return out.str();
}

// Compares `g`'s edge list against tests/data/topo_<name>.txt.
void check_golden(const std::string& name, const graph& g) {
  testgolden::check_file("topo_" + name + ".txt", render(g));
}

// The MBone substrate's Waxman parameters (alpha 0.08, beta 0.12) at the
// size make_mbone uses for its small test overlay.
waxman_params mbone_substrate(bool connected) {
  waxman_params p = mbone_params{}.substrate;
  p.nodes = 600;
  p.ensure_connected = connected;
  return p;
}

// The catalog's r100 entry.
waxman_params r100(bool connected) {
  waxman_params p;
  p.nodes = 100;
  p.alpha = 0.25;
  p.beta = 0.2;
  p.ensure_connected = connected;
  return p;
}

TEST(topology_golden, waxman_mbone_substrate) {
  check_golden("waxman_mbone_substrate_connected", make_waxman(mbone_substrate(true), 7));
  check_golden("waxman_mbone_substrate_unrepaired", make_waxman(mbone_substrate(false), 7));
}

TEST(topology_golden, waxman_r100) {
  check_golden("waxman_r100_connected", make_waxman(r100(true), 7));
  const graph unrepaired = make_waxman(r100(false), 7);
  // This seed leaves r100 in pieces, so the two goldens also pin the
  // nearest-pair repair.
  EXPECT_FALSE(is_connected(unrepaired));
  check_golden("waxman_r100_unrepaired", unrepaired);
}

TEST(topology_golden, mbone_small) {
  mbone_params p;
  p.substrate.nodes = 600;
  p.overlay_nodes = 200;
  check_golden("mbone_small", make_mbone(p, 1));
}

// The MBone entry table1 and fig1 build at budget 1500: a 4500-node
// substrate and a 750-router overlay.
TEST(topology_golden, mbone_catalog_budget1500) {
  check_golden("mbone_budget1500", build_catalog_topology("MBone", 7, 1500));
}

}  // namespace
}  // namespace mcast
