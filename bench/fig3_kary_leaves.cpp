// Figure 3 — L̂(n)/n versus ln(n/M) for k-ary trees with receivers at the
// leaves, compared to the predicted line 1/ln k − ln(n/M)/ln k (Eq 16):
//   (a) k = 2, D = 10, 14, 17;   (b) k = 4, D = 5, 7, 9.
// The linear mid-range with slope −1/ln k is the paper's "linear with a
// logarithmic correction" form of L̂(n) (Eq 17). Per-depth curves fan out
// over ctx.sweep.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "analysis/kary_asymptotic.hpp"
#include "analysis/kary_exact.hpp"
#include "analysis/series.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {

void register_fig3(registry& reg) {
  experiment e;
  e.id = "fig3";
  e.title = "Fig 3: L-hat(n)/n vs ln(n/M), receivers at leaves";
  e.claim =
      "L-hat(n)/n vs ln(n/M) for k-ary trees (receivers at "
      "leaves) against the line 1/ln k - ln(n/M)/ln k (paper Fig 3)";
  e.params = {
      p_u64("points", "n samples per curve (log grid)", 25, 70, 140),
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
      const double lnk = std::log(static_cast<double>(p.k));
      ctx.sweep(p.depths.size(), [&](std::size_t i, recorder& rec) {
        const unsigned d = p.depths[i];
        const double m_sites = kary_leaf_count(p.k, d);
        std::vector<double> xs, ys;
        for (double frac : log_grid(1e-6, 1.0, points)) {
          const double n = frac * m_sites;
          if (n < 1.0) continue;
          xs.push_back(std::log(frac));
          ys.push_back(kary_tree_size_leaves(p.k, d, n) / n);
        }
        std::ostringstream label;
        label << "k=" << p.k << ",D=" << d << "  (L/n vs ln(n/M))";
        rec.series(label.str(), xs, ys);

        // Fit the intermediate regime D/M < n/M < 0.3 and compare the slope
        // with the predicted -1/ln k.
        std::vector<double> fx, fy;
        for (std::size_t j = 0; j < xs.size(); ++j) {
          const double frac = std::exp(xs[j]);
          if (frac * m_sites > d && frac < 0.3) {
            fx.push_back(xs[j]);
            fy.push_back(ys[j]);
          }
        }
        const linear_fit lf = fit_linear(fx, fy);
        std::ostringstream fit;
        fit << "slope=" << lf.slope << " predicted=" << -1.0 / lnk
            << " intercept=" << lf.intercept << " predicted_intercept="
            << 1.0 / lnk << " R2=" << lf.r_squared;
        rec.fit("Fig3/k=" + std::to_string(p.k) + ",D=" + std::to_string(d),
                fit.str());
      });
      std::vector<double> rx, ry;
      for (double lx : linear_grid(std::log(1e-6), 0.0, 13)) {
        rx.push_back(lx);
        ry.push_back((1.0 - lx) / lnk);
      }
      ctx.series("reference (1 - ln(n/M))/ln k, k=" + std::to_string(p.k),
                 rx, ry);
    }
    ctx.line(
        "paper: slopes match -1/ln k closely; intercepts deviate "
        "slightly (additive constant, Section 3.3).");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
