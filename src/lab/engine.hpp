// The experiment engine: resolve parameters, run, record.
//
// `run_experiment` is the single in-process entry point shared by the
// mcast_lab CLI and the test suite. It resolves the tiered parameter set
// (scale defaults + `--param k=v` overrides), emits the classic banner,
// hands the experiment a `context` wired to this run's recorder and
// scheduler budget, times the run (wall and CPU), and assembles the JSON
// run manifest from what the experiment actually emitted.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lab/manifest.hpp"
#include "lab/recorder.hpp"
#include "lab/registry.hpp"

namespace mcast::lab {

struct run_options {
  int scale = 1;             ///< effort tier (0 smoke / 1 normal / >=2 paper)
  std::size_t threads = 0;   ///< scheduler workers; 0 = hardware concurrency
  bool banner = true;        ///< emit the classic "== id ==" header lines
  /// `--param name=value` overrides, applied after scale defaults.
  std::vector<std::pair<std::string, std::string>> overrides;
};

struct run_outcome {
  recorder output;
  run_record manifest;
};

/// Runs one experiment. Throws std::invalid_argument on bad overrides and
/// propagates whatever the experiment itself throws. Threads are resolved
/// via core's resolve_thread_count (0 -> hardware concurrency).
run_outcome run_experiment(const experiment& exp, const run_options& opts);

}  // namespace mcast::lab
