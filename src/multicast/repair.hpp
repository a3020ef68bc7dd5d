// Delivery-tree repair under failures (extension).
//
// When links or nodes fail, a session's delivery tree may route traffic
// over dead elements. Repair is what a link-state multicast routing plane
// converges to after the failure is flooded: recompute the shortest-path
// tree in the degraded topology and re-attach every receiver the degraded
// network can still reach. This module performs that convergence step as
// one deterministic operation and reports its cost:
//
//  * receivers are classified unaffected (their old delivery path is
//    physically intact), rerouted (old path broken, but the degraded
//    network still reaches them) or partitioned (no surviving path — they
//    are dropped from the tree);
//  * repair cost is the link churn between the old and new trees
//    (links_added + links_removed). Because the whole tree is re-converged
//    onto degraded shortest paths, even "unaffected" receivers can churn
//    links when distances elsewhere shift — exactly the collateral churn a
//    real SPT recomputation produces.
//
// The repaired tree routes only over usable elements, so by construction
// it never contains a failed link or node (asserted in tests/test_repair).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fault/degraded.hpp"
#include "multicast/dynamic_tree.hpp"

namespace mcast {

/// What happened to each distinct receiver site during a repair.
struct repair_report {
  std::vector<node_id> unaffected;   ///< old delivery path fully intact
  std::vector<node_id> rerouted;     ///< re-attached via degraded shortest paths
  std::vector<node_id> partitioned;  ///< unreachable in the degraded view
  std::size_t links_added = 0;       ///< links in the new tree but not the old
  std::size_t links_removed = 0;     ///< links in the old tree but not the new
  std::size_t receivers_lost = 0;    ///< receiver instances at partitioned sites
  bool source_lost = false;          ///< the source node itself has failed

  /// Total link churn — the repair-cost headline number.
  std::size_t churn() const noexcept { return links_added + links_removed; }
};

/// A repaired delivery tree: new routing base (SPT in the degraded view),
/// the rebuilt tree, and the repair accounting. The routing base is shared
/// because the caller hands it on to the owner of the delivery tree
/// (group_manager::rebase) while keeping it for reachability checks.
struct repaired_tree {
  std::shared_ptr<const source_tree> routing;
  std::unique_ptr<dynamic_delivery_tree> delivery;
  repair_report report;
};

/// Re-converges `broken` (a delivery tree whose routing may predate the
/// failures in `view`) onto shortest paths of the degraded view. Receiver
/// multiplicities are preserved for every reachable site; partitioned
/// sites lose all their receiver instances. The view must overlay the same
/// topology the tree was built on. Deterministic.
repaired_tree repair_delivery_tree(const dynamic_delivery_tree& broken,
                                   const degraded_view& view);

}  // namespace mcast
