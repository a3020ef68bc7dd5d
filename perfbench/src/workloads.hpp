// The four workloads and the fixed numbers that size them.
//
// Reference figures (capacity, run wall times) were measured on the
// commit that defined the benchmark, on a 4-core Intel Xeon box with the
// RelWithDebInfo build this package makes. They fix the offered rates of
// the open-loop phases and the amount of work per run, so a parent commit
// and a change always see the same load. Do not re-measure them in a change
// that claims a gain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Load and thread sizing shared by every run.
inline constexpr std::size_t k_service_workers = 2;  ///< line_server workers
inline constexpr std::size_t k_connections = 2;      ///< C <= workers
inline constexpr std::size_t k_lab_threads = 2;      ///< scheduler workers
/// Set-up is repeated this many times per run, back to back; setup_s is
/// the fastest. Set-up times on the shared host are bimodal, with modes
/// about 1 ms apart for the service (0.4 ms for the lab) and whole runs
/// sitting in one mode or the other, so the per-run median jumped by
/// 30-40% between runs of the same code while the fastest moved least.
/// Interference only ever adds time to a set-up.
inline constexpr std::size_t k_setup_reps = 101;

/// The seed a run uses when none is given, and one kept back for
/// confirming a claimed gain on inputs the change was not tuned on.
inline constexpr std::uint64_t k_default_seed = 1;
inline constexpr std::uint64_t k_held_out_seed = 7331;

/// Requests each connection keeps outstanding in the closed loop. With one,
/// the loop is bound by thread wake-ups rather than by the server (the two
/// workers were 36% busy) and its goodput moved up to 2x between runs on a
/// shared host; with this many, both workers stay busy.
inline constexpr std::size_t k_closed_depth = 16;

/// Share of --seconds given to each timed service phase: the closed-loop
/// batch (sized from the reference capacity) and the two open-loop phases.
inline constexpr double k_closed_share = 0.3;
inline constexpr double k_open_share = 0.3;

/// Open-loop validity limits: a run whose generator sent its p99 request
/// of a phase later than this, or whose backlog at the end of any chunk's
/// schedule exceeds the larger of the two backlog limits, is invalid
/// rather than fast. Late sends are still timed from their due time, so a
/// brief stall of the client shows in the latencies instead.
inline constexpr double k_max_gen_late_ms = 25.0;
inline constexpr double k_max_backlog_requests = 64.0;
inline constexpr double k_max_backlog_seconds = 0.05;

struct svc_profile {
  const char* name;
  bool access_log;  ///< the JSONL access log is on while timing
  /// Closed-loop goodput with one request outstanding per connection, at
  /// definition. The open-loop rates are 50% and 80% of it, and the
  /// closed-loop batch holds this rate x k_closed_share x --seconds
  /// requests.
  double capacity_ref_rps;
  double r50_rps;
  double r80_rps;
};

inline constexpr svc_profile k_svc_read{"svc_read", false, 45000.0, 22500.0,
                                        36000.0};
inline constexpr svc_profile k_svc_write{"svc_write", true, 50000.0, 25000.0,
                                         40000.0};

struct lab_step {
  const char* experiment;
  std::vector<std::pair<std::string, std::string>> params;
};

struct lab_profile {
  const char* name;
  std::vector<lab_step> steps;  ///< run in order; one "run" is all of them
  double wall_ref_s;            ///< wall time of one run at definition
  /// Each Monte-Carlo seed the run can use has a stored output digest;
  /// --seed picks one of them (1 = the experiment has no seed parameter).
  std::uint64_t seed_slots;
};

/// fig9 at n_max 2048 (its scale-1 grid) with one sample sweep and no
/// burn-in, so one run is a few seconds of Metropolis moves.
lab_profile lab_affinity_profile();
/// table1 then fig1 on the eight-network suite scaled to 1500 nodes.
lab_profile lab_networks_profile(std::uint64_t seed);

}  // namespace perfbench
