// Command-line front end for the experiment engine.
//
//   mcast_lab list                      enumerate experiment ids
//   mcast_lab describe <id>             claim + parameters + tier defaults
//   mcast_lab run <id> [options]        run one experiment
//   mcast_lab run --all [options]       run every registered experiment
//   mcast_lab validate <dir>            schema-check BENCH_*.json manifests
//
// Run options: --param k=v (repeatable), --scale N (overrides
// MCAST_BENCH_SCALE), --threads N (0 = hardware),
// --manifest-dir DIR (default "."), --out-dir DIR (also write per-
// experiment <id>.dat series files), --no-manifest.
//
// Series/FIT output goes to stdout exactly as the old per-figure binaries
// printed it; progress lines go to stderr so redirected output stays
// gnuplot-clean.
#pragma once

namespace mcast::lab {

class registry;

/// Returns a process exit code (0 on success, 1 on bad usage or a failed
/// run, 2 on validation failure).
int run_cli(const registry& reg, int argc, char** argv);

}  // namespace mcast::lab
