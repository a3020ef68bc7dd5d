// Figure 9 — L̂_β(n)/(n·D) versus ln n for binary trees with receivers at
// all non-root sites, for β in {-10, -1, -0.1, 0, 0.1, 1, 10}:
//   (a) depth D = 10;   (b) depth D = 12.
// Configurations are sampled from W_α(β) ∝ exp(−β·d̄(α)) with a Metropolis
// chain; the β = ±∞ envelopes come from the greedy extreme constructions.
// The extremes_only parameter (the old --extremes-only flag) prints just
// the closed-form envelopes. Each depth carries its own RNGs, so the two
// depths fan out over ctx.sweep.
#include <cmath>
#include <sstream>

#include "experiments.hpp"

#include "analysis/series.hpp"
#include "lab/registry.hpp"
#include "multicast/affinity.hpp"
#include "multicast/receivers.hpp"
#include "topo/kary.hpp"

namespace mcast::lab {

void register_fig9(registry& reg) {
  experiment e;
  e.id = "fig9";
  e.title = "Fig 9: affinity/disaffinity L-hat_beta(n) on binary trees";
  e.claim =
      "L-hat_beta(n)/(n*D) vs ln n on binary trees D=10 and D=12 "
      "for beta in {-10,-1,-0.1,0,0.1,1,10} (paper Fig 9a/9b)";
  e.params = {
      p_u64("n_max", "largest group size on the grid", 256, 2048, 10000),
      p_u64("grid_points", "group sizes on the log grid", 6, 10, 14),
      p_u64("burn", "Metropolis burn-in sweeps", 6, 14, 25),
      p_u64("sample", "Metropolis sample sweeps", 3, 6, 10),
      p_bool("extremes_only",
             "print only the greedy beta=+/-inf envelopes", false),
  };
  e.metric_groups = {"scheduler", "traversal"};
  e.run = [](context& ctx) {
    const std::vector<unsigned> depths = {10, 12};
    const double betas[] = {-10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0};
    const std::uint64_t n_max = ctx.u64("n_max");
    const std::size_t grid_points = ctx.u64("grid_points");
    const unsigned burn = static_cast<unsigned>(ctx.u64("burn"));
    const unsigned sample = static_cast<unsigned>(ctx.u64("sample"));
    const bool extremes_only = ctx.flag("extremes_only");

    ctx.sweep(depths.size(), [&](std::size_t di, recorder& rec) {
      const unsigned d = depths[di];
      const kary_shape shape(2, d);
      const graph g = shape.to_graph();
      const source_tree tree(g, 0);
      const std::vector<node_id> universe = all_sites_except(g, 0);
      const kary_distance_oracle oracle(shape);
      const auto grid = log_grid_integers(1, n_max, grid_points);

      // β = ±∞ envelopes from the greedy constructions (distinct sites, so
      // they stop at the site count).
      rng greedy_gen(55);
      const std::size_t env_n = std::min<std::size_t>(
          universe.size(), static_cast<std::size_t>(n_max));
      const auto packed =
          greedy_affinity_trajectory(tree, universe, env_n, greedy_gen);
      const auto spread =
          greedy_disaffinity_trajectory(tree, universe, env_n, greedy_gen);
      auto emit_envelope = [&](const char* name,
                               const std::vector<std::size_t>& traj) {
        std::vector<double> xs, ys;
        for (std::uint64_t n : grid) {
          if (n > traj.size()) break;
          xs.push_back(std::log(static_cast<double>(n)));
          ys.push_back(static_cast<double>(traj[n - 1]) /
                       (static_cast<double>(n) * d));
        }
        std::ostringstream label;
        label << name << " D=" << d << "  (L/(n*D) vs ln n)";
        rec.series(label.str(), xs, ys);
      };
      emit_envelope("beta=+inf (greedy clustered)", packed);
      emit_envelope("beta=-inf (greedy spread)", spread);
      if (extremes_only) return;

      for (double beta : betas) {
        std::vector<double> xs, ys;
        rng gen(900 + d);
        for (std::uint64_t n : grid) {
          affinity_chain_params params;
          params.beta = beta;
          params.burn_in_sweeps = burn;
          params.sample_sweeps = sample;
          const affinity_estimate est = sample_affinity_tree_size(
              tree, universe, static_cast<std::size_t>(n), oracle, params,
              gen);
          xs.push_back(std::log(static_cast<double>(n)));
          ys.push_back(est.mean_tree_size / (static_cast<double>(n) * d));
        }
        std::ostringstream label;
        label << "beta=" << beta << " D=" << d << "  (L/(n*D) vs ln n)";
        rec.series(label.str(), xs, ys);
      }

      // The paper's Section 5.4 observation: the β-spread at fixed n shrinks
      // as the network grows; report the spread at a mid-grid n for cross-D
      // comparison.
      const std::uint64_t probe = grid[grid.size() / 2];
      double lo = 1e300, hi = -1e300;
      for (double beta : {-1.0, 0.0, 1.0}) {
        affinity_chain_params params;
        params.beta = beta;
        params.burn_in_sweeps = burn;
        params.sample_sweeps = sample;
        rng gen(77 + d);
        const double v =
            sample_affinity_tree_size(tree, universe,
                                      static_cast<std::size_t>(probe), oracle,
                                      params, gen)
                .mean_tree_size /
            (static_cast<double>(probe) * d);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      std::ostringstream line;
      line << "beta_spread(L/(nD)) at n=" << probe << ": " << hi - lo
           << " (should shrink with D; Section 5.4)";
      rec.fit("Fig9/D=" + std::to_string(d), line.str());
    });
    ctx.line(
        "paper: affinity (beta>0) shrinks the tree, disaffinity "
        "grows it; effect largest at small n and vanishing in the "
        "large-network limit (Fig 9, Section 5.4).");
  };
  reg.add(std::move(e));
}

}  // namespace mcast::lab
