#include "topo/regular.hpp"

#include <string>

#include "common/contract.hpp"
#include "graph/builder.hpp"

namespace mcast {

graph make_path(node_id n) {
  expects(n >= 1, "make_path: n must be >= 1");
  graph_builder b(n);
  b.set_name("path" + std::to_string(n));
  for (node_id v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

graph make_ring(node_id n) {
  expects(n >= 3, "make_ring: n must be >= 3");
  graph_builder b(n);
  b.set_name("ring" + std::to_string(n));
  for (node_id v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

graph make_star(node_id n) {
  expects(n >= 1, "make_star: n must be >= 1");
  graph_builder b(n);
  b.set_name("star" + std::to_string(n));
  for (node_id v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

graph make_complete(node_id n) {
  expects(n >= 1, "make_complete: n must be >= 1");
  graph_builder b(n);
  // Appended rather than `"K" + std::to_string(n)`: GCC 12 at -O3 reports
  // a false -Wrestrict inside std::string for the one-character prefix.
  std::string name = "K";
  name += std::to_string(n);
  b.set_name(std::move(name));
  for (node_id v = 0; v < n; ++v) {
    for (node_id w = v + 1; w < n; ++w) b.add_edge(v, w);
  }
  return b.build();
}

graph make_torus(node_id rows, node_id cols) {
  expects(rows >= 3 && cols >= 3, "make_torus: rows and cols must be >= 3");
  graph_builder b(rows * cols);
  b.set_name("torus" + std::to_string(rows) + "x" + std::to_string(cols));
  for (node_id r = 0; r < rows; ++r) {
    for (node_id c = 0; c < cols; ++c) {
      const node_id v = r * cols + c;
      b.add_edge(v, r * cols + (c + 1) % cols);
      b.add_edge(v, ((r + 1) % rows) * cols + c);
    }
  }
  return b.build();
}

graph make_hypercube(unsigned dim) {
  expects(dim >= 1 && dim <= 20, "make_hypercube: dim must be in [1, 20]");
  const node_id n = static_cast<node_id>(1u) << dim;
  graph_builder b(n);
  b.set_name("hypercube" + std::to_string(dim));
  for (node_id v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < dim; ++bit) {
      const node_id w = v ^ (static_cast<node_id>(1u) << bit);
      if (v < w) b.add_edge(v, w);
    }
  }
  return b.build();
}

graph make_grid(node_id rows, node_id cols) {
  expects(rows >= 1 && cols >= 1, "make_grid: rows and cols must be >= 1");
  graph_builder b(rows * cols);
  b.set_name("grid" + std::to_string(rows) + "x" + std::to_string(cols));
  for (node_id r = 0; r < rows; ++r) {
    for (node_id c = 0; c < cols; ++c) {
      const node_id v = r * cols + c;
      if (c + 1 < cols) b.add_edge(v, v + 1);
      if (r + 1 < rows) b.add_edge(v, v + cols);
    }
  }
  return b.build();
}

}  // namespace mcast
