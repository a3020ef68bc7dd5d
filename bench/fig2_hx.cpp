// Figure 2 — h(x) versus x for k-ary trees (receivers at leaves), compared
// to the predicted line h(x) = x·k^{-1/2}:
//   (a) k = 2, D = 11, 14, 17;   (b) k = 4, D = 5, 7, 9.
// h is computed from the exact second difference (Eq 6) through Eq 11; the
// straight-line collapse is the paper's evidence that the degree k only
// rescales the asymptotic form. The per-depth curves are independent, so
// each panel fans out over ctx.sweep.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "analysis/kary_asymptotic.hpp"
#include "analysis/kary_exact.hpp"
#include "analysis/series.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {

void register_fig2(registry& reg) {
  experiment e;
  e.id = "fig2";
  e.title = "Fig 2: h(x) vs x for k-ary trees, receivers at leaves";
  e.claim =
      "h(x) vs x for k-ary trees with receivers at leaves, against "
      "the line h(x) = x*k^(-1/2) (paper Fig 2a/2b)";
  e.params = {
      p_u64("points", "x samples per curve", 20, 60, 120),
  };
  e.metric_groups = {"scheduler"};
  e.run = [](context& ctx) {
    struct panel {
      unsigned k;
      std::vector<unsigned> depths;
    };
    const panel panels[] = {{2, {11, 14, 17}}, {4, {5, 7, 9}}};
    const std::size_t points = ctx.u64("points");

    for (const panel& p : panels) {
      ctx.sweep(p.depths.size(), [&](std::size_t i, recorder& rec) {
        const unsigned d = p.depths[i];
        std::vector<double> xs, ys;
        for (double x : linear_grid(0.02, 1.0, points)) {
          xs.push_back(x);
          ys.push_back(kary_h_exact(p.k, d, x));
        }
        std::ostringstream label;
        label << "k=" << p.k << ",D=" << d << "  (h(x) vs x)";
        rec.series(label.str(), xs, ys);

        // Paper's check: the exact h tracks the line with slope k^{-1/2}
        // away from the tiny-x divergence.
        std::vector<double> fx, fy;
        for (std::size_t j = 0; j < xs.size(); ++j) {
          if (xs[j] >= 0.25) {
            fx.push_back(xs[j]);
            fy.push_back(ys[j]);
          }
        }
        const linear_fit lf = fit_linear(fx, fy);
        std::ostringstream fit;
        fit << "slope=" << lf.slope << " predicted=" << 1.0 / std::sqrt(p.k)
            << " R2=" << lf.r_squared;
        rec.fit("Fig2/k=" + std::to_string(p.k) + ",D=" + std::to_string(d),
                fit.str());
      });
      // Reference line for the panel.
      std::vector<double> rx, ry;
      for (double x : linear_grid(0.0, 1.0, 11)) {
        rx.push_back(x);
        ry.push_back(kary_h_approx(p.k, x));
      }
      ctx.series("reference x*k^(-1/2), k=" + std::to_string(p.k), rx, ry);
    }
    ctx.line(
        "paper: k=2 fits the line well for x > 1/D; k=4 oscillates "
        "around it (discreteness of the level sum, Section 3.2).");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
