// Session-level multicast simulator (extension).
//
// The Chuang-Sirbu law is about one group frozen in time; what a provider
// actually carries is many concurrent sessions whose memberships churn.
// This simulator runs that workload as a discrete-event process:
//
//   * sessions arrive Poisson(session_arrival_rate), each with a random
//     source and an exponential lifetime;
//   * while a session lives, members join Poisson(member_join_rate) at
//     uniform random sites and stay for exponential(member_lifetime_mean)
//     holding times;
//   * every session maintains its delivery tree incrementally
//     (multicast/dynamic_tree.hpp), and the simulator integrates
//     Σ_sessions links(t) dt — the aggregate bandwidth-time the network
//     spends on multicast;
//   * optionally, a scheduled link failure/recovery trace
//     (fault/failure_model.hpp) degrades the topology while sessions run.
//     On every effective topology change each live session re-converges
//     its tree onto degraded shortest paths (multicast/repair.hpp):
//     members the degraded network cannot reach detach from the tree (but
//     stay subscribed), and a later recovery re-attaches them. The metrics
//     record the degraded-mode story: repairs, link churn, disconnections
//     and the time-averaged reachable fraction.
//
// The point (tested in tests/test_session.cpp, regenerated by
// bench/ext_sessions): the time-averaged aggregate link load matches the
// prediction obtained by composing the fitted scaling law with the
// workload's group-size distribution — the calculation a provider would do
// when provisioning capacity from the m^0.8 rule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/failure_model.hpp"
#include "graph/graph.hpp"
#include "multicast/dynamic_tree.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace mcast {

struct session_workload {
  double session_arrival_rate = 0.5;  ///< sessions per unit time, > 0
  double session_lifetime_mean = 20.0;///< > 0
  double member_join_rate = 2.0;      ///< joins per unit time per session, > 0
  double member_lifetime_mean = 5.0;  ///< > 0
  std::size_t max_concurrent_sessions = 64;  ///< arrivals beyond are dropped
};

struct session_metrics {
  double duration = 0.0;                 ///< simulated time span measured
  double time_avg_links = 0.0;           ///< ⟨Σ_sessions links(t)⟩_t
  double time_avg_members = 0.0;         ///< ⟨Σ_sessions members(t)⟩_t
  double time_avg_sessions = 0.0;        ///< ⟨#active sessions⟩_t
  double mean_group_size_at_join = 0.0;  ///< mean distinct sites per session, sampled at joins
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_dropped = 0;    ///< arrivals refused by the cap
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  double peak_links = 0.0;               ///< max Σ links(t) observed

  // Degraded-mode fields; all zero / 1.0 when the failure trace is empty.
  std::uint64_t link_failures = 0;       ///< effective link-down transitions applied
  std::uint64_t link_recoveries = 0;     ///< effective link-up transitions applied
  std::uint64_t repairs = 0;             ///< tree re-convergences that changed a tree
  std::uint64_t repair_links_churned = 0;///< links added + removed across repairs
  /// Member instances a failure left without a path: detached by a repair,
  /// or joined while their site was partitioned.
  std::uint64_t receivers_disconnected = 0;
  std::uint64_t receivers_reconnected = 0;  ///< detached instances re-attached later
  double time_avg_reachable_fraction = 1.0; ///< ⟨attached members / members⟩_t (1 when no members)
};

/// Runs the workload on `g` for `warmup + duration` time units and returns
/// metrics integrated over the post-warmup window. Deterministic given
/// `seed`. The graph must be connected and have >= 2 nodes.
session_metrics simulate_sessions(const graph& g, const session_workload& workload,
                                  double duration, double warmup,
                                  std::uint64_t seed);

/// Same workload, but the links of `g` fail and recover according to
/// `faults` (absolute event times; see make_failure_trace). Sessions repair
/// their delivery trees on every effective topology change; partitioned
/// members stay subscribed while detached and re-attach on recovery. The
/// trace consumes no randomness, so with an empty trace this is identical
/// to the overload above. Every event must reference an existing link of
/// `g` and carry a non-negative time. Deterministic given `seed`.
session_metrics simulate_sessions(const graph& g, const session_workload& workload,
                                  const std::vector<link_event>& faults,
                                  double duration, double warmup,
                                  std::uint64_t seed);

}  // namespace mcast
