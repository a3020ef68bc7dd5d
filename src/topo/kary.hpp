// Complete k-ary trees — the analytically tractable topology of Sections 3
// and 5 of the paper.
//
// Node numbering is heap order: the root (the multicast source) is node 0
// and the children of node v are k*v+1 ... k*v+k. This gives O(depth)
// parent/LCA/distance arithmetic without touching the graph at all.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace mcast {

/// Index geometry of a complete k-ary tree of depth D (edges on a
/// root-to-leaf path). Pure arithmetic; no adjacency storage.
class kary_shape {
 public:
  /// Requires k >= 2 and depth >= 0, and total node count <= 2^32 - 2.
  kary_shape(unsigned k, unsigned depth);

  unsigned k() const noexcept { return k_; }
  unsigned depth() const noexcept { return depth_; }

  /// Total number of nodes = (k^(D+1) - 1) / (k - 1).
  std::uint64_t node_count() const noexcept { return total_; }

  /// Number of leaves = k^D  (the paper's M when receivers sit at leaves).
  std::uint64_t leaf_count() const noexcept { return leaves_; }

  /// Number of nodes at level l (root = level 0). Requires l <= depth.
  std::uint64_t level_size(unsigned l) const;

  /// First node id at level l. Requires l <= depth.
  node_id level_begin(unsigned l) const;

  /// Id of the first leaf (== level_begin(depth)).
  node_id first_leaf() const { return level_begin(depth_); }

  /// Level of node v (0 for the root). Requires v < node_count().
  unsigned level_of(node_id v) const;

  /// Parent of v; invalid_node for the root. Requires v < node_count().
  node_id parent(node_id v) const;

  /// Lowest common ancestor of a and b. Requires both < node_count().
  node_id lca(node_id a, node_id b) const;

  /// Hop distance between a and b in the tree. O(depth).
  unsigned distance(node_id a, node_id b) const;

  /// Materializes the adjacency structure as a graph named "kary<k>x<D>".
  graph to_graph() const;

 private:
  unsigned k_;
  unsigned depth_;
  std::uint64_t total_;
  std::uint64_t leaves_;
  std::vector<node_id> level_begin_;  // size depth+2; [depth+1] == total
};

/// Convenience: the graph of a complete k-ary tree of the given depth.
graph make_kary_tree(unsigned k, unsigned depth);

}  // namespace mcast
