// Figure 4 — ln(L(m)/D) versus ln m for k-ary trees (receivers at leaves)
// compared to the Chuang-Sirbu line m^0.8:
//   (a) k = 2, D = 10, 14, 17;   (b) k = 4, D = 5, 7, 9.
// The paper's surprise: Eq 18 is *not* a power law, yet its curves hug
// m^0.8 over the whole usable range — one candidate explanation for the
// law's universality. Per-depth curves fan out over ctx.sweep.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "analysis/kary_exact.hpp"
#include "analysis/series.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {

void register_fig4(registry& reg) {
  experiment e;
  e.id = "fig4";
  e.title = "Fig 4: ln(L(m)/D) vs ln m for k-ary trees vs m^0.8";
  e.claim =
      "ln(L(m)/D) vs ln m for k-ary trees with receivers at "
      "leaves, against the line m^0.8 (paper Fig 4)";
  e.params = {
      p_u64("points", "m samples per curve (log grid)", 20, 50, 100),
  };
  e.metric_groups = {"scheduler"};
  e.run = [](context& ctx) {
    struct panel {
      unsigned k;
      std::vector<unsigned> depths;
    };
    const panel panels[] = {{2, {10, 14, 17}}, {4, {5, 7, 9}}};
    const std::size_t points = ctx.u64("points");

    for (const panel& p : panels) {
      ctx.sweep(p.depths.size(), [&](std::size_t i, recorder& rec) {
        const unsigned d = p.depths[i];
        const double m_sites = kary_leaf_count(p.k, d);
        std::vector<double> xs, ys;
        for (double m : log_grid(1.0, 0.999 * m_sites, points)) {
          xs.push_back(m);
          ys.push_back(kary_tree_size_distinct_leaves(p.k, d, m) / d);
        }
        std::ostringstream label;
        label << "k=" << p.k << ",D=" << d << "  (L(m)/D vs m)";
        rec.series(label.str(), xs, ys);

        const power_law_fit f =
            fit_power_law_windowed(xs, ys, 2.0, 0.3 * m_sites);
        std::ostringstream fit;
        fit << "exponent=" << f.exponent << " R2=" << f.r_squared
            << " (paper: ~0.8 despite Eq 18 not being a power law)";
        rec.fit("Fig4/k=" + std::to_string(p.k) + ",D=" + std::to_string(d),
                fit.str());
      });
    }
    std::vector<double> rx, ry;
    for (double m = 1.0; m <= 1e6; m *= 4.0) {
      rx.push_back(m);
      ry.push_back(std::pow(m, 0.8));
    }
    ctx.series("reference m^0.8", rx, ry);
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
