// lab_affinity and lab_networks: experiments run through
// lab::run_experiment, the entry point `mcast_lab run` uses.
//
// A run is one pass over the workload's experiments at fixed parameters.
// After one untimed warm-up run, runs repeat back to back; every run's
// rendered output is digested and compared with the digest stored for its
// Monte-Carlo seed. The lab has no offered rate: its latency metrics are
// the run wall times themselves.
#include "lab.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "graph/metrics.hpp"
#include "lab/engine.hpp"
#include "lab/registry.hpp"
#include "multicast/affinity.hpp"
#include "multicast/delivery_tree.hpp"
#include "multicast/receivers.hpp"
#include "multicast/spt.hpp"
#include "analysis/series.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "topo/cache.hpp"
#include "topo/catalog.hpp"
#include "topo/kary.hpp"
#include "experiments.hpp"

namespace perfbench {

lab_profile lab_affinity_profile() {
  return {"lab_affinity",
          {{"fig9", {{"n_max", "2048"}, {"burn", "0"}, {"sample", "1"}}}},
          2.85,
          1};
}

lab_profile lab_networks_profile(std::uint64_t seed) {
  // fig1's Monte-Carlo seed follows --seed through four stored variants.
  const std::string mc_seed = std::to_string(1999 + seed % 4);
  return {"lab_networks",
          {{"table1", {{"budget", "1500"}}},
           {"fig1", {{"budget", "1500"}, {"seed", mc_seed}}}},
          1.75,
          4};
}

namespace {

using mcast::obs::counter;
using mcast::obs::metrics_snapshot;

mcast::lab::registry make_registry() {
  mcast::lab::registry reg;
  mcast::lab::register_table1(reg);
  mcast::lab::register_fig1(reg);
  mcast::lab::register_fig9(reg);
  return reg;
}

mcast::lab::run_options run_options_for(const lab_step& step) {
  mcast::lab::run_options o;
  o.scale = 1;
  o.threads = k_lab_threads;
  o.overrides = step.params;
  return o;
}

/// Sums of the manifest metrics the per-layer numbers come from.
struct lab_counters {
  double busy_ns = 0, worker_ns = 0, splice_ns = 0;
  double spt_hits = 0, spt_misses = 0;
  double ws_grows = 0, ws_reuses = 0;
  double topo_hits = 0, topo_misses = 0;

  void add(const metrics_snapshot& m) {
    busy_ns += static_cast<double>(m.at(counter::sched_busy_ns));
    worker_ns += static_cast<double>(m.at(counter::sched_worker_ns));
    splice_ns += static_cast<double>(m.at(counter::sched_splice_wait_ns));
    spt_hits += static_cast<double>(m.at(counter::spt_cache_hits));
    spt_misses += static_cast<double>(m.at(counter::spt_cache_misses));
    ws_grows += static_cast<double>(m.at(counter::workspace_grows));
    ws_reuses += static_cast<double>(m.at(counter::workspace_reuses));
    topo_hits += static_cast<double>(m.at(counter::topo_cache_hits));
    topo_misses += static_cast<double>(m.at(counter::topo_cache_misses));
  }
};

/// One run: every step of the profile, output concatenated.
struct run_out {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> step_wall_s;
  std::string text;
  bool ok = true;
  std::string error;
};

run_out run_once(const mcast::lab::registry& reg, const lab_profile& prof,
                 span_log& spans, std::uint64_t request, lab_counters& sums) {
  run_out out;
  // Each run pays topology generation, as a fresh `mcast_lab run` does.
  mcast::shared_topology_cache().clear();
  const std::int32_t run_span = spans.begin("lab.run", -1, request);
  const std::int64_t t = now_ns();
  for (const lab_step& step : prof.steps) {
    const mcast::lab::experiment* exp = reg.find(step.experiment);
    scoped_span s(spans, step.experiment, run_span, request);
    const std::int64_t ts = now_ns();
    try {
      const mcast::lab::run_outcome r =
          mcast::lab::run_experiment(*exp, run_options_for(step));
      out.text += r.output.str();
      out.cpu_s += r.manifest.cpu_seconds;
      sums.add(r.manifest.metrics);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = std::string(step.experiment) + ": " + e.what();
    }
    out.step_wall_s.push_back(seconds_since(ts));
  }
  out.wall_s = seconds_since(t);
  spans.end(run_span);
  return out;
}

}  // namespace

int lab_ready(const std::string& workload) {
  // What `mcast_lab run` does before an experiment starts: build the
  // registry and resolve the run's parameters.
  if (workload != "lab_affinity" && workload != "lab_networks") return 2;
  const mcast::lab::registry reg = make_registry();
  const lab_profile prof = workload == "lab_affinity" ? lab_affinity_profile()
                                                      : lab_networks_profile(0);
  for (const lab_step& step : prof.steps) {
    const mcast::lab::experiment* exp = reg.find(step.experiment);
    if (exp == nullptr) return 1;
    (void)mcast::lab::resolve_params(exp->params, 1, step.params);
  }
  signal_ready();
  return 0;
}

result run_lab(const options& opt, const lab_profile& prof, span_log& spans) {
  result res;

  // Set-up: start a process and get the engine ready to run, repeated.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < k_setup_reps; ++rep) {
    scoped_span s(spans, "setup");
    setup_s.push_back(time_until_ready({"perfbench", "--ready", prof.name}));
  }

  const mcast::lab::registry reg = make_registry();
  const std::uint64_t slot = opt.seed % prof.seed_slots;
  std::string want = reference_digest(opt.reference_path, prof.name, slot);
  if (want.empty()) {
    res.invalidate("no reference digest for " + std::string(prof.name) +
                   " slot " + std::to_string(slot) + " in " + opt.reference_path);
  }
  if (opt.corrupt_reference && !want.empty()) want[0] = want[0] == '0' ? '1' : '0';

  const auto check = [&](const run_out& r, const std::string& which) {
    ++res.attempted;
    const std::string got = hex64(fnv1a(r.text));
    if (!r.ok) {
      ++res.failed;
      res.notes.push_back("failed: " + r.error);
    } else if (got != want) {
      ++res.failed;
      res.notes.push_back("failed: " + which + " output digest " + got +
                          " != reference " + want);
    }
  };

  // The first run in a process is slower (page faults, allocator and
  // cache warm-up) by up to a quarter; it is checked but not timed.
  {
    lab_counters ignored;
    const bool traced = spans.on();
    spans.enable(false);
    check(run_once(reg, prof, spans, 0, ignored), "warm-up run");
    spans.enable(traced);
  }

  const std::size_t reps = static_cast<std::size_t>(std::max<long long>(
      3, std::llround(0.9 * opt.seconds / prof.wall_ref_s)));
  std::vector<double> walls, cpus;
  std::vector<std::vector<double>> step_walls(prof.steps.size());
  lab_counters sums;
  for (std::size_t i = 0; i < reps; ++i) {
    const run_out r = run_once(reg, prof, spans, i + 1, sums);
    check(r, "run " + std::to_string(i));
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    for (std::size_t s = 0; s < r.step_wall_s.size(); ++s) {
      step_walls[s].push_back(r.step_wall_s[s]);
    }
  }

  double total = 0.0;
  for (double w : walls) total += w;
  std::vector<double> walls_ms;
  for (double w : walls) walls_ms.push_back(w * 1e3);
  // The fastest set-up, not the median: see k_setup_reps.
  res.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  res.fact("setup_s_median", median(setup_s));
  res.set("wall_s", median(walls), "s");
  res.set("capacity_rps", static_cast<double>(reps) / total, "1/s");
  // No offered rate: a run's latency is its wall time, so p50_ms_r50 is
  // wall_s in ms and carries the same bound.
  res.set("p50_ms_r50", quantile(walls_ms, 0.50), "ms");
  res.set("p99_ms_r50", quantile(walls_ms, 0.99), "ms");
  res.set("p99_ms_r80", quantile(walls_ms, 0.99), "ms");
  res.fact("runs", static_cast<double>(reps));
  res.fact("setup_reps", static_cast<double>(k_setup_reps));
  res.fact("p50_ms_r50_samples", static_cast<double>(walls.size()));
  res.fact("p99_ms_r50_samples", static_cast<double>(walls.size()));
  res.fact("p99_ms_r80_samples", static_cast<double>(walls.size()));
  res.fact("lab_threads", static_cast<double>(k_lab_threads));
  res.fact("seed_slot", static_cast<double>(slot));
  std::string steps;
  for (const lab_step& step : prof.steps) {
    steps += steps.empty() ? "" : " ";
    steps += step.experiment;
    for (const auto& [k, v] : step.params) steps += " " + k + "=" + v;
  }
  res.fact("experiments", steps);

  if (opt.trace) {
    res.set("lab.sched_busy_frac", ratio(sums.busy_ns, sums.worker_ns), "ratio");
    res.set("lab.cpu_s", median(cpus), "s");
    res.set("lab.splice_wait_ms", sums.splice_ns / 1e6 / static_cast<double>(reps), "ms");
    for (std::size_t s = 0; s < prof.steps.size(); ++s) {
      res.set(std::string("lab.experiment_wall_s.") + prof.steps[s].experiment,
              median(step_walls[s]), "s");
    }
    res.set("multicast.spt_cache_hit_ratio",
            ratio(sums.spt_hits, sums.spt_hits + sums.spt_misses), "ratio");
    res.set("graph.workspace_reuse_ratio",
            ratio(sums.ws_reuses, sums.ws_grows + sums.ws_reuses), "ratio");
    res.set("topo.cache_hits", sums.topo_hits, "count");
    res.set("topo.cache_misses", sums.topo_misses, "count");

    // Tracing overhead: one more run with spans off.
    spans.enable(false);
    lab_counters ignored;
    const run_out plain = run_once(reg, prof, spans, 0, ignored);
    spans.enable(true);
    check(plain, "untraced run");
    res.set("bench.trace_overhead_frac",
            ratio(median(walls) - plain.wall_s, plain.wall_s), "ratio");

    if (prof.steps.front().experiment == std::string("fig9")) {
      // Metropolis moves: fig9's chains at beta 0 and 1 on both depths,
      // with the workload's burn/sample, timed per call.
      const std::int32_t parent = spans.begin("replay.affinity");
      double moves = 0.0;
      mcast::lab::param_set ps = mcast::lab::resolve_params(
          reg.find("fig9")->params, 1, prof.steps.front().params);
      const std::uint64_t n_max = ps.u64("n_max");
      mcast::affinity_chain_params chain;
      chain.burn_in_sweeps = static_cast<unsigned>(ps.u64("burn"));
      chain.sample_sweeps = static_cast<unsigned>(ps.u64("sample"));
      for (unsigned d : {10u, 12u}) {
        const mcast::kary_shape shape(2, d);
        const mcast::graph g = shape.to_graph();
        const mcast::source_tree tree(g, 0);
        const std::vector<mcast::node_id> universe = mcast::all_sites_except(g, 0);
        const mcast::kary_distance_oracle oracle(shape);
        mcast::rng gen(900 + d);
        for (std::uint64_t n : mcast::log_grid_integers(1, n_max, ps.u64("grid_points"))) {
          for (double beta : {0.0, 1.0}) {
            chain.beta = beta;
            scoped_span s(spans, "multicast.sample_affinity_tree_size", parent);
            (void)mcast::sample_affinity_tree_size(tree, universe, n, oracle, chain, gen);
            moves += static_cast<double>(
                (chain.burn_in_sweeps + std::max(1u, chain.sample_sweeps)) * n);
          }
        }
      }
      spans.end(parent);
      const std::vector<double> d = spans.durations_us("multicast.sample_affinity_tree_size");
      res.set("multicast.affinity_move_us",
              ratio(mean(d) * static_cast<double>(d.size()), moves), "us");
    } else {
      const mcast::node_id budget = 1500;
      // Topology generation and all-pairs BFS over the table1 suite.
      std::vector<mcast::graph> suite;
      const std::int32_t topo = spans.begin("replay.topology");
      double build_ms = 0.0, all_pairs_ms = 0.0;
      for (const auto& entry : mcast::paper_networks()) {
        const std::int64_t t = now_ns();
        {
          scoped_span s(spans, "topo.build_catalog_topology", topo);
          suite.push_back(mcast::build_catalog_topology(entry.name, 7, budget));
        }
        build_ms += static_cast<double>(now_ns() - t) / 1e6;
      }
      spans.end(topo);
      const std::int32_t apsp = spans.begin("replay.all_pairs");
      for (const mcast::graph& g : suite) {
        const std::int64_t t = now_ns();
        scoped_span s(spans, "graph.all_pairs", apsp);
        (void)mcast::average_path_length_exact(g);
        (void)mcast::diameter_exact(g);
        all_pairs_ms += static_cast<double>(now_ns() - t) / 1e6;
      }
      spans.end(apsp);
      res.set("topo.build_ms", build_ms, "ms");
      res.set("graph.all_pairs_ms", all_pairs_ms, "ms");

      // Traversal and tree building on ts1000 from fixed sources.
      res.set("graph.bfs_us.p50", replay_bfs_ts1000(spans), "us");
      const auto ts = mcast::shared_topology_cache().get("ts1000", 7);
      const mcast::graph& g = *ts;

      mcast::rng gen(opt.seed);
      const std::int32_t trees = spans.begin("replay.delivery_tree");
      for (std::uint32_t i = 0; i < 20; ++i) {
        const mcast::source_tree tree(g, (i * 53) % g.node_count());
        const std::vector<mcast::node_id> universe =
            mcast::all_sites_except(g, tree.source());
        for (std::size_t m : {10u, 100u, 500u}) {
          const std::vector<mcast::node_id> receivers =
              mcast::sample_distinct(universe, m, gen);
          scoped_span s(spans, "multicast.delivery_tree_size", trees);
          (void)mcast::delivery_tree_size(tree, receivers);
        }
      }
      spans.end(trees);
      res.set("multicast.delivery_tree_us.p50",
              median(spans.durations_us("multicast.delivery_tree_size")), "us");

      // The Monte-Carlo runner, one thread, fig1's sizes on ts1000.
      mcast::monte_carlo_params mc;
      mc.sources = 20;
      mc.receiver_sets = 40;
      mc.seed = 1999;
      double samples = 0.0;
      std::int64_t t = now_ns();
      {
        scoped_span s(spans, "core.measure_distinct_receivers");
        for (const auto& row : mcast::measure_distinct_receivers(
                 g, mcast::default_group_grid(g.node_count() - 1, 22), mc)) {
          samples += static_cast<double>(row.samples);
        }
      }
      res.set("core.mc_sample_us",
              ratio(static_cast<double>(now_ns() - t) / 1e3, samples), "us");
    }
  }

  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (std::size_t i = 0; i < walls.size(); ++i) {
    res.notes.push_back("run wall_s " + num(walls[i]) + " cpu_s " + num(cpus[i]));
  }
  return res;
}

}  // namespace perfbench
