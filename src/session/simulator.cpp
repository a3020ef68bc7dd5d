#include "session/simulator.hpp"

#include <algorithm>
#include <functional>
#include <list>

#include "common/contract.hpp"
#include "fault/degraded.hpp"
#include "graph/components.hpp"
#include "graph/workspace.hpp"
#include "group/group_manager.hpp"
#include "multicast/repair.hpp"
#include "multicast/spt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcast {

namespace {

struct member_slot {
  node_id site = invalid_node;
  bool active = false;    // joined and not yet left
  bool attached = false;  // currently served by the delivery tree
};

struct live_session {
  // Shared with the simulator's group_manager, which owns the delivery
  // tree under `group`; the session keeps the routing base for
  // reachability checks without a manager lookup.
  std::shared_ptr<const source_tree> tree;
  std::string group;                 // manager key within the sim scope
  std::vector<member_slot> members;  // every join ever made, by index
  event_queue::event_id end_event = 0;
  event_queue::event_id next_join_event = 0;
  std::vector<event_queue::event_id> leave_events;  // parallel to members
};

}  // namespace

session_metrics simulate_sessions(const graph& g, const session_workload& w,
                                  double duration, double warmup,
                                  std::uint64_t seed) {
  return simulate_sessions(g, w, std::vector<link_event>{}, duration, warmup,
                           seed);
}

session_metrics simulate_sessions(const graph& g, const session_workload& w,
                                  const std::vector<link_event>& faults,
                                  double duration, double warmup,
                                  std::uint64_t seed) {
  expects(g.node_count() >= 2, "simulate_sessions: graph too small");
  expects(is_connected(g), "simulate_sessions: graph must be connected");
  expects(w.session_arrival_rate > 0.0 && w.session_lifetime_mean > 0.0 &&
              w.member_join_rate > 0.0 && w.member_lifetime_mean > 0.0,
          "simulate_sessions: workload rates must be positive");
  expects(w.max_concurrent_sessions >= 1,
          "simulate_sessions: need capacity for at least one session");
  expects(duration > 0.0 && warmup >= 0.0,
          "simulate_sessions: duration must be positive, warmup non-negative");
  for (const link_event& fe : faults) {
    expects(fe.time >= 0.0, "simulate_sessions: fault event time must be >= 0");
    expects_in_range(fe.link.a < g.node_count() && fe.link.b < g.node_count(),
                     "simulate_sessions: fault event node out of range");
    expects(g.has_edge(fe.link.a, fe.link.b),
            "simulate_sessions: fault event references a non-existent link");
  }

  MCAST_OBS_SPAN("simulate_sessions");
  rng gen(seed);
  event_queue events;
  session_metrics metrics;
  metrics.duration = duration;
  degraded_view view(g);
  // Arrival SPTs are built on one reusable workspace; reuse never changes
  // a tree.
  traversal_workspace ws;
  // Every session's tree is a named group: the simulator is the group
  // manager's reference embedder, so session churn exercises exactly the
  // graft/prune path the live group_* service ops run. Names are a
  // monotonic counter — the trajectory consumes no extra randomness.
  group_manager groups;
  const std::string sim_scope = "sim";
  std::uint64_t next_group = 0;

  std::list<live_session> sessions;
  // Aggregate integrals, accumulated lazily: every state change first adds
  // current_value * (now - last_change) to the integral.
  double last_change = 0.0;
  double links_integral = 0.0;
  double members_integral = 0.0;
  double sessions_integral = 0.0;
  double reachable_integral = 0.0;
  std::size_t total_links = 0;
  std::size_t total_members = 0;    // active member instances
  std::size_t total_attached = 0;   // active instances on some delivery tree
  double group_size_sum = 0.0;
  std::uint64_t group_size_samples = 0;
  const double t_begin = warmup;
  const double t_end = warmup + duration;

  auto account = [&](double now) {
    const double from = std::max(last_change, t_begin);
    const double to = std::min(now, t_end);
    if (to > from) {
      const double dt = to - from;
      links_integral += static_cast<double>(total_links) * dt;
      members_integral += static_cast<double>(total_members) * dt;
      sessions_integral += static_cast<double>(sessions.size()) * dt;
      reachable_integral +=
          (total_members == 0
               ? 1.0
               : static_cast<double>(total_attached) /
                     static_cast<double>(total_members)) *
          dt;
    }
    last_change = now;
    if (now >= t_begin && now <= t_end) {
      metrics.peak_links =
          std::max(metrics.peak_links, static_cast<double>(total_links));
    }
  };

  // Re-converges one session onto the current degraded view: rebuild its
  // SPT + tree, detach members the network lost, re-attach members it
  // regained. Caller has already account()ed the current time.
  auto repair_session = [&](live_session& s) {
    const dynamic_delivery_tree& broken = groups.delivery(sim_scope, s.group);
    const std::size_t old_links = broken.link_count();
    repaired_tree r = repair_delivery_tree(broken, view);

    std::uint64_t detached = 0;
    std::uint64_t reattached = 0;
    std::size_t reattach_gained = 0;
    for (member_slot& m : s.members) {
      if (!m.active) continue;
      const bool reachable = r.routing->distance(m.site) != unreachable;
      if (m.attached && !reachable) {
        m.attached = false;
        --total_attached;
        ++detached;
      } else if (!m.attached && reachable) {
        // Re-attach on the rebuilt tree before it is handed back to the
        // manager: like the repair's own link delta, this is convergence
        // churn and must not count as membership grafts.
        reattach_gained += r.delivery->join(m.site);
        m.attached = true;
        ++total_attached;
        ++reattached;
      }
    }

    total_links -= old_links;
    total_links += r.delivery->link_count();
    s.tree = r.routing;
    groups.rebase(sim_scope, s.group, std::move(r.routing),
                  std::move(r.delivery));

    const std::size_t churn = r.report.churn() + reattach_gained;
    if (events.now() >= t_begin &&
        (churn > 0 || detached > 0 || reattached > 0)) {
      ++metrics.repairs;
      metrics.repair_links_churned += churn;
      metrics.receivers_disconnected += detached;
      metrics.receivers_reconnected += reattached;
    }
  };

  // Forward declarations through std::function so events can reschedule
  // themselves (the join stream) and new arrivals (the arrival stream).
  std::function<void()> arrive;
  std::function<void(std::list<live_session>::iterator)> schedule_join;

  schedule_join = [&](std::list<live_session>::iterator it) {
    it->next_join_event = events.schedule(
        events.now() + gen.exponential(w.member_join_rate), [&, it] {
          account(events.now());
          // Pick a member site (any node but the source).
          node_id v = static_cast<node_id>(gen.below(g.node_count()));
          if (v == it->tree->source()) v = (v + 1) % g.node_count();
          const bool reachable = it->tree->distance(v) != unreachable;
          if (reachable) {
            const group_snapshot snap = groups.join(sim_scope, it->group, v);
            total_links += snap.last_grafted;
            ++total_attached;
          }
          ++total_members;
          it->members.push_back({v, /*active=*/true, /*attached=*/reachable});
          if (events.now() >= t_begin) {
            ++metrics.joins;
            if (!reachable) ++metrics.receivers_disconnected;
            group_size_sum += static_cast<double>(
                groups.delivery(sim_scope, it->group)
                    .distinct_receiver_sites());
            ++group_size_samples;
          }
          // Member departure.
          const std::size_t member_index = it->members.size() - 1;
          it->leave_events.push_back(events.schedule(
              events.now() + gen.exponential(1.0 / w.member_lifetime_mean),
              [&, it, member_index] {
                account(events.now());
                member_slot& m = it->members[member_index];
                if (m.attached) {
                  const group_snapshot snap =
                      groups.leave(sim_scope, it->group, m.site);
                  total_links -= snap.last_pruned;
                  --total_attached;
                  m.attached = false;
                }
                m.active = false;
                --total_members;
                if (events.now() >= t_begin) ++metrics.leaves;
              }));
          schedule_join(it);
        });
  };

  auto end_session = [&](std::list<live_session>::iterator it) {
    account(events.now());
    // Cancel pending events and drain remaining members.
    events.cancel(it->next_join_event);
    for (event_queue::event_id id : it->leave_events) events.cancel(id);
    std::size_t active = 0;
    for (const member_slot& m : it->members) {
      if (m.active) ++active;
    }
    const dynamic_delivery_tree& delivery =
        groups.delivery(sim_scope, it->group);
    total_links -= delivery.link_count();
    total_members -= active;
    total_attached -= delivery.receiver_count();
    if (events.now() >= t_begin) {
      metrics.leaves += active;
    }
    groups.erase(sim_scope, it->group);
    sessions.erase(it);
    ++metrics.sessions_completed;
  };

  arrive = [&] {
    account(events.now());
    if (sessions.size() < w.max_concurrent_sessions) {
      sessions.emplace_back();
      auto it = std::prev(sessions.end());
      const node_id source = static_cast<node_id>(gen.below(g.node_count()));
      // Routed over the current degraded view; identical to the pristine
      // SPT while nothing is failed.
      bfs_tree t;
      it->tree = std::make_shared<const source_tree>(
          g, std::move(bfs_from(view, source, ws, t)));
      it->group = std::to_string(next_group++);
      groups.create(sim_scope, it->group, it->tree);
      it->end_event = events.schedule(
          events.now() + gen.exponential(1.0 / w.session_lifetime_mean),
          [&, it] { end_session(it); });
      schedule_join(it);
      ++metrics.sessions_started;
    } else {
      ++metrics.sessions_dropped;
    }
    events.schedule(events.now() + gen.exponential(w.session_arrival_rate),
                    arrive);
  };

  // The failure trace consumes no randomness: the workload trajectory is
  // identical with and without it (until repairs change tree shapes).
  for (const link_event& fe : faults) {
    if (fe.time >= t_end) continue;
    events.schedule(fe.time, [&, fe] {
      account(events.now());
      const bool changed = fe.fails
                               ? view.fail_link(fe.link.a, fe.link.b)
                               : view.restore_link(fe.link.a, fe.link.b);
      if (!changed) return;  // e.g. a recovery for a link that never failed
      obs::add(obs::counter::sim_degraded_transitions);
      if (events.now() >= t_begin) {
        if (fe.fails) {
          ++metrics.link_failures;
        } else {
          ++metrics.link_recoveries;
        }
      }
      for (live_session& s : sessions) repair_session(s);
    });
  }

  events.schedule(gen.exponential(w.session_arrival_rate), arrive);
  events.run_until(t_end);
  account(t_end);

  metrics.time_avg_links = links_integral / duration;
  metrics.time_avg_members = members_integral / duration;
  metrics.time_avg_sessions = sessions_integral / duration;
  metrics.time_avg_reachable_fraction = reachable_integral / duration;
  metrics.mean_group_size_at_join =
      group_size_samples == 0
          ? 0.0
          : group_size_sum / static_cast<double>(group_size_samples);
  return metrics;
}

}  // namespace mcast
