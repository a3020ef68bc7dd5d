// Engine-level series guarantees for the analytic figures (2, 3, 4), the
// affinity figure (9) and the network suite (table1, fig1):
//   * byte-identical output across scheduler thread counts (1 vs 4) and
//     with the SPT cache on or off — the scheduler splices sweep points
//     back in index order, so parallelism must never show in the bytes;
//   * byte-identical to the checked-in goldens under tests/data/ (the
//     exact text the retired per-figure binaries printed at scale 0, plus
//     fig9 at scale 1, which pins the Metropolis chain and the greedy
//     envelopes at paper-sized group counts, and table1 at scale 1, which
//     pins the full-size generators and all-pairs statistics);
//   * differentially identical to a direct closed-form recomputation
//     (fig2's h(x) and fig4's L(m)/D evaluated straight from
//     analysis/kary_exact.hpp at the recorded x grid).
//
// Regenerating after a *deliberate* output change:
//   MCAST_REGEN_GOLDEN=1 ./test_lab_series
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/kary_exact.hpp"
#include "experiments.hpp"
#include "golden_file.hpp"
#include "lab/engine.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {
namespace {

const registry& builtin() {
  static const registry reg = [] {
    registry r;
    register_builtin(r);
    return r;
  }();
  return reg;
}

run_outcome run_at_scale(const std::string& id, int scale,
                         std::size_t threads, bool use_spt_cache) {
  const experiment* exp = builtin().find(id);
  if (exp == nullptr) throw std::runtime_error("unknown experiment " + id);
  run_options opts;
  opts.scale = scale;
  opts.threads = threads;
  opts.use_spt_cache = use_spt_cache;
  return run_experiment(*exp, opts);
}

run_outcome run_at_scale0(const std::string& id, std::size_t threads,
                          bool use_spt_cache) {
  return run_at_scale(id, 0, threads, use_spt_cache);
}

// Compares a run's rendered text against tests/data/lab_<id>_scale<S>.txt.
void check_golden(const std::string& id, const std::string& rendered,
                  int scale = 0) {
  testgolden::check_file("lab_" + id + "_scale" + std::to_string(scale) + ".txt",
                         rendered);
}

class lab_series : public ::testing::TestWithParam<const char*> {};

TEST_P(lab_series, thread_count_and_cache_invariant_and_golden) {
  const std::string id = GetParam();
  const run_outcome one = run_at_scale0(id, 1, true);
  const std::string base = one.output.str();
  ASSERT_FALSE(base.empty());

  EXPECT_EQ(run_at_scale0(id, 4, true).output.str(), base)
      << id << ": output depends on scheduler thread count";
  EXPECT_EQ(run_at_scale0(id, 4, false).output.str(), base)
      << id << ": output depends on the SPT cache toggle";

  check_golden(id, base);
}

INSTANTIATE_TEST_SUITE_P(analytic_figures, lab_series,
                         ::testing::Values("fig2", "fig3", "fig4", "fig9"));

// The network suite: every catalog generator, the all-pairs path
// statistics (table1) and the Monte-Carlo runner over them (fig1).
INSTANTIATE_TEST_SUITE_P(network_figures, lab_series,
                         ::testing::Values("table1", "fig1"));

// fig9 at scale 1 (n_max 2048 on binary trees of depth 10 and 12): the
// grid the paper plots, where every Metropolis sweep and greedy envelope
// step runs at full size.
TEST(lab_series_golden, fig9_scale1) {
  check_golden("fig9", run_at_scale("fig9", 1, 4, true).output.str(), 1);
}

// table1 at scale 1: the full-size suite, with the 2500-router MBone
// overlay over an 8000-node Waxman substrate and exact path statistics on
// every network up to 4000 nodes.
TEST(lab_series_golden, table1_scale1) {
  check_golden("table1", run_at_scale("table1", 1, 4, true).output.str(), 1);
}

// Parses "k=K,D=D  (...)" labels emitted by fig2/fig4.
bool parse_kd(const std::string& label, unsigned& k, unsigned& d) {
  unsigned kk = 0, dd = 0;
  if (std::sscanf(label.c_str(), "k=%u,D=%u", &kk, &dd) != 2) return false;
  k = kk;
  d = dd;
  return true;
}

// Differential check: every fig2 curve point must equal the closed form
// evaluated at the recorded x — bit for bit, since the experiment computes
// exactly this expression.
TEST(lab_series_differential, fig2_matches_kary_h_exact) {
  const run_outcome out = run_at_scale0("fig2", 4, true);
  std::size_t curves = 0;
  for (const auto& s : out.output.all_series()) {
    unsigned k = 0, d = 0;
    if (!parse_kd(s.label, k, d)) continue;  // reference lines
    ++curves;
    ASSERT_EQ(s.x.size(), s.y.size()) << s.label;
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      EXPECT_EQ(s.y[i], kary_h_exact(k, d, s.x[i]))
          << s.label << " point " << i;
    }
  }
  EXPECT_EQ(curves, 6u);  // two panels, three depths each
}

TEST(lab_series_differential, fig4_matches_kary_tree_size) {
  const run_outcome out = run_at_scale0("fig4", 4, true);
  std::size_t curves = 0;
  for (const auto& s : out.output.all_series()) {
    unsigned k = 0, d = 0;
    if (!parse_kd(s.label, k, d)) continue;
    ++curves;
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      EXPECT_EQ(s.y[i], kary_tree_size_distinct_leaves(k, d, s.x[i]) / d)
          << s.label << " point " << i;
    }
  }
  EXPECT_EQ(curves, 6u);
}

// A Monte-Carlo experiment (fig1 with a tiny override budget) must also be
// invariant to the engine's thread grant — the runner partitions by source
// deterministically.
TEST(lab_series_differential, fig1_small_run_thread_invariant) {
  const experiment* exp = builtin().find("fig1");
  ASSERT_NE(exp, nullptr);
  run_options opts;
  opts.scale = 0;
  opts.overrides = {{"suite", "generated"},
                    {"budget", "150"},
                    {"receiver_sets", "3"},
                    {"sources", "3"},
                    {"grid_points", "6"}};
  opts.threads = 1;
  const std::string one = run_experiment(*exp, opts).output.str();
  opts.threads = 4;
  const std::string four = run_experiment(*exp, opts).output.str();
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace mcast::lab
