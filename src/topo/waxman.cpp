#include "topo/waxman.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace mcast {

namespace {

struct point {
  double x = 0.0;
  double y = 0.0;
};

double dist(const point& a, const point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

// Links the components of `g` by repeatedly adding the geometrically
// shortest edge between the component containing node 0 and the rest.
graph connect_by_nearest(const graph& g, const std::vector<point>& pos) {
  graph current = g;
  while (true) {
    const component_map cm = connected_components(current);
    if (cm.count <= 1) return current;
    const node_id home = cm.label[0];
    double best = std::numeric_limits<double>::infinity();
    node_id best_in = invalid_node;
    node_id best_out = invalid_node;
    for (node_id u = 0; u < current.node_count(); ++u) {
      if (cm.label[u] != home) continue;
      for (node_id v = 0; v < current.node_count(); ++v) {
        if (cm.label[v] == home) continue;
        const double d = dist(pos[u], pos[v]);
        if (d < best) {
          best = d;
          best_in = u;
          best_out = v;
        }
      }
    }
    graph_builder b(current.node_count());
    b.set_name(current.name());
    for (const edge& e : current.edges()) b.add_edge(e.a, e.b);
    b.add_edge(best_in, best_out);
    current = b.build();
  }
}

}  // namespace

graph make_waxman(const waxman_params& p, rng& gen,
                  std::vector<point2d>* positions) {
  expects(p.nodes >= 1, "make_waxman: nodes must be >= 1");
  expects(p.alpha > 0.0 && p.alpha <= 1.0, "make_waxman: alpha must be in (0,1]");
  expects(p.beta > 0.0 && p.beta <= 1.0, "make_waxman: beta must be in (0,1]");
  expects(p.plane_size > 0.0, "make_waxman: plane_size must be positive");

  std::vector<point> pos(p.nodes);
  for (point& q : pos) {
    q.x = gen.uniform() * p.plane_size;
    q.y = gen.uniform() * p.plane_size;
  }
  if (positions != nullptr) {
    positions->clear();
    positions->reserve(p.nodes);
    for (const point& q : pos) positions->push_back({q.x, q.y});
  }
  const double scale = p.beta * p.plane_size * std::sqrt(2.0);

  graph_builder b(p.nodes);
  b.set_name("waxman" + std::to_string(p.nodes));
  for (node_id u = 0; u < p.nodes; ++u) {
    for (node_id v = u + 1; v < p.nodes; ++v) {
      // Same single draw as gen.chance(prob). prob <= alpha exactly
      // (exp(-x) <= 1 for x >= 0, rounding is monotone), so r >= alpha
      // rejects without computing prob.
      const double r = gen.uniform();
      if (r >= p.alpha) continue;
      if (r < p.alpha * std::exp(-dist(pos[u], pos[v]) / scale)) b.add_edge(u, v);
    }
  }
  graph g = b.build();
  if (p.ensure_connected) g = connect_by_nearest(g, pos);
  return g;
}

graph make_waxman(const waxman_params& params, std::uint64_t seed) {
  rng gen(seed);
  return make_waxman(params, gen);
}

}  // namespace mcast
