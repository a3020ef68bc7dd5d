// Figure 8 — L̂(n)/(n·D) versus ln n for three synthetic reachability
// families, all normalized to the same S(D) (Eq 23, Section 4.3):
//   exponential        S(r) = 2^r
//   polynomial         S(r) ∝ r^λ        (slower than exponential)
//   super-exponential  S(r) ∝ e^{λ r²}   (faster than exponential)
// The exponential case follows the linear-in-ln n form; the other two do
// not — the boundary of the paper's analysis. The three families are
// independent and fan out over ctx.sweep.
#include <cmath>
#include <sstream>
#include <string>

#include "experiments.hpp"

#include "analysis/fit.hpp"
#include "analysis/reachability.hpp"
#include "analysis/series.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {

void register_fig8(registry& reg) {
  experiment e;
  e.id = "fig8";
  e.title = "Fig 8: L-hat(n)/(n*D) vs ln n for synthetic S(r) families";
  e.claim =
      "L-hat(n)/(n*D) vs ln n for exponential, polynomial and "
      "super-exponential S(r), equal S(D) (paper Fig 8)";
  e.params = {
      p_u64("depth", "tree depth D (sets the common anchor S(D)=2^D)",
            16, 30, 34),
      p_real("n_max", "largest n on the log grid", 1e8, 1e10, 1e12),
      p_u64("points", "n samples per curve (log grid)", 30, 60, 90),
  };
  e.metric_groups = {"scheduler"};
  e.run = [](context& ctx) {
    const unsigned depth = static_cast<unsigned>(ctx.u64("depth"));
    const double anchor = std::pow(2.0, static_cast<double>(depth));
    const double n_max = ctx.real("n_max");
    const std::size_t points = ctx.u64("points");

    struct family {
      std::string name;
      std::vector<double> s;
    };
    const family families[] = {
        {"S(r)=2^r (exponential)",
         synthetic_reachability_exponential(2.0, depth)},
        {"S(r)~r^4 (polynomial)",
         synthetic_reachability_power(4.0, depth, anchor)},
        {"S(r)~e^(l*r^2) (super-exponential)",
         synthetic_reachability_superexponential(std::log(2.0) / depth, depth,
                                                 anchor)},
    };

    ctx.sweep(3, [&](std::size_t i, recorder& rec) {
      const family& f = families[i];
      std::vector<double> xs, ys;
      for (double n : log_grid(1.0, n_max, points)) {
        xs.push_back(std::log(n));
        ys.push_back(general_tree_size_leaves(f.s, n) /
                     (n * static_cast<double>(depth)));
      }
      rec.series(f.name + "  (L/(n*D) vs ln n)", xs, ys);

      // Linearity over the pre-saturation range ln n in [ln D, ln(S(D))].
      std::vector<double> fx, fy;
      for (std::size_t j = 0; j < xs.size(); ++j) {
        if (xs[j] > std::log(static_cast<double>(depth)) &&
            xs[j] < std::log(anchor)) {
          fx.push_back(xs[j]);
          fy.push_back(ys[j]);
        }
      }
      const linear_fit lf = fit_linear(fx, fy);
      std::ostringstream line;
      line << "linearity_R2=" << lf.r_squared << " slope=" << lf.slope;
      rec.fit("Fig8/" + f.name, line.str());
    });
    ctx.line(
        "paper: only the exponential family follows the "
        "n(c - ln(n/M)/lambda) form; the others have 'quite "
        "different behavior' (Section 4.3).");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
