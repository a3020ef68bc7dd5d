#include "topo/kary.hpp"

#include <limits>
#include <string>

#include "common/contract.hpp"
#include "graph/builder.hpp"

namespace mcast {

kary_shape::kary_shape(unsigned k, unsigned depth) : k_(k), depth_(depth) {
  expects(k >= 2, "kary_shape: k must be >= 2");
  level_begin_.reserve(depth + 2);
  std::uint64_t begin = 0;
  std::uint64_t width = 1;
  for (unsigned l = 0; l <= depth; ++l) {
    expects(begin <= std::numeric_limits<node_id>::max() - 1,
            "kary_shape: tree too large for 32-bit node ids");
    level_begin_.push_back(static_cast<node_id>(begin));
    begin += width;
    if (l < depth) {
      expects(width <= std::numeric_limits<std::uint64_t>::max() / k,
              "kary_shape: tree too large");
      width *= k;
    }
  }
  expects(begin <= std::numeric_limits<node_id>::max() - 1,
          "kary_shape: tree too large for 32-bit node ids");
  level_begin_.push_back(static_cast<node_id>(begin));
  total_ = begin;
  leaves_ = width;
}

std::uint64_t kary_shape::level_size(unsigned l) const {
  expects_in_range(l <= depth_, "kary_shape::level_size: level out of range");
  return static_cast<std::uint64_t>(level_begin_[l + 1]) - level_begin_[l];
}

node_id kary_shape::level_begin(unsigned l) const {
  expects_in_range(l <= depth_, "kary_shape::level_begin: level out of range");
  return level_begin_[l];
}

unsigned kary_shape::level_of(node_id v) const {
  expects_in_range(v < total_, "kary_shape::level_of: node out of range");
  // Levels are few (<= ~40 for any representable tree): a linear scan from
  // the top is fine and branch-predicts well.
  unsigned l = 0;
  while (v >= level_begin_[l + 1]) ++l;
  return l;
}

node_id kary_shape::parent(node_id v) const {
  expects_in_range(v < total_, "kary_shape::parent: node out of range");
  if (v == 0) return invalid_node;
  return static_cast<node_id>((static_cast<std::uint64_t>(v) - 1) / k_);
}

node_id kary_shape::lca(node_id a, node_id b) const {
  expects_in_range(a < total_ && b < total_, "kary_shape::lca: node out of range");
  unsigned la = level_of(a);
  unsigned lb = level_of(b);
  while (la > lb) {
    a = static_cast<node_id>((static_cast<std::uint64_t>(a) - 1) / k_);
    --la;
  }
  while (lb > la) {
    b = static_cast<node_id>((static_cast<std::uint64_t>(b) - 1) / k_);
    --lb;
  }
  while (a != b) {
    a = static_cast<node_id>((static_cast<std::uint64_t>(a) - 1) / k_);
    b = static_cast<node_id>((static_cast<std::uint64_t>(b) - 1) / k_);
  }
  return a;
}

unsigned kary_shape::distance(node_id a, node_id b) const {
  expects_in_range(a < total_ && b < total_,
                   "kary_shape::distance: node out of range");
  unsigned la = level_of(a);
  unsigned lb = level_of(b);
  unsigned d = 0;
  while (la > lb) {
    a = static_cast<node_id>((static_cast<std::uint64_t>(a) - 1) / k_);
    --la;
    ++d;
  }
  while (lb > la) {
    b = static_cast<node_id>((static_cast<std::uint64_t>(b) - 1) / k_);
    --lb;
    ++d;
  }
  while (a != b) {
    a = static_cast<node_id>((static_cast<std::uint64_t>(a) - 1) / k_);
    b = static_cast<node_id>((static_cast<std::uint64_t>(b) - 1) / k_);
    d += 2;
  }
  return d;
}

graph kary_shape::to_graph() const {
  graph_builder b(static_cast<node_id>(total_));
  b.set_name("kary" + std::to_string(k_) + "x" + std::to_string(depth_));
  for (std::uint64_t v = 1; v < total_; ++v) {
    b.add_edge(static_cast<node_id>(v), static_cast<node_id>((v - 1) / k_));
  }
  return b.build();
}

graph make_kary_tree(unsigned k, unsigned depth) {
  return kary_shape(k, depth).to_graph();
}

}  // namespace mcast
