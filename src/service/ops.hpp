// Op handlers behind the query service dispatch table.
//
// Every operation of the line protocol lives here as a pure function of
// (request, op_context); query_service (service/query_service.hpp) runs
// them through the table below. The context supplies the host's topology
// resolver, live server stats and group state.
//
// Handler units:
//   ops_lmhat.cpp        — closed-form k-ary L̂(n) (Eq 2/3)
//   ops_estimate.cpp     — Monte-Carlo L(m) / L̂(n) over a catalog topology
//   ops_reachability.cpp — reachability profiles + growth fit
//   ops_admin.cpp        — metrics / healthz (live state; exempt from the
//                          byte-identity guarantee)
//   ops.cpp              — the table, response documents, batch envelope
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "graph/graph.hpp"
#include "group/group_manager.hpp"
#include "net/server.hpp"
#include "service/protocol.hpp"

namespace mcast::service {

/// Cost-aware load shedding (docs/resilience.md). Pressure is a number in
/// [0, 1] (typically queue_depth / queue_capacity). The expensive
/// Monte-Carlo ops degrade first and refuse last; lmhat/metrics/healthz
/// are never shed. Thresholds above 1 disable the corresponding tier,
/// which is the default: shedding must be asked for.
struct shed_policy {
  /// At or above this pressure, lm_estimate answers with the Eq 4 closed
  /// form (marked `"degraded": true`) and reachability with a single-BFS
  /// profile instead of the Monte-Carlo mean.
  double degrade_at = 2.0;
  /// At or above this pressure, lm_estimate/reachability are refused with
  /// the retryable typed error `shed`.
  double refuse_at = 2.0;
};

/// Resolves (catalog name, seed, budget) to a shared immutable graph; the
/// query service binds the process-wide topology cache.
using topology_resolver = std::function<std::shared_ptr<const graph>(
    const std::string& name, std::uint64_t seed, node_id budget)>;

/// Everything a handler needs from its host service. Handlers run on many
/// server workers at once, so the callbacks must be thread-safe (they are:
/// the resolver is a cache, the stats source reads atomics).
struct op_context {
  service_limits limits;
  topology_resolver resolve;                    ///< required
  std::function<net::server_stats()> stats;     ///< null => zeros + own uptime
  /// Live group state for the group_* ops: one manager holds every group.
  std::shared_ptr<group_manager> groups;
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

// --- dispatch table ----------------------------------------------------

enum class op_kind {
  lmhat,
  lm_estimate,
  reachability,
  metrics,
  healthz,
  group_create,
  group_join,
  group_leave,
  group_stats,
  group_list,
};

struct op_entry {
  const char* name;
  op_kind kind;
  /// Participates in cost-aware shedding (the Monte-Carlo ops).
  bool sheddable;
};

/// Table lookup; nullptr for unknown ops. "batch" is deliberately not in
/// the table — it is an envelope the host service unpacks, not a handler.
const op_entry* find_op(const std::string& op) noexcept;

/// Runs the table entry's handler. `degraded` only matters for sheddable
/// ops; the host computed it from its shed policy before dispatching.
json::value run_op(const op_entry& entry, const json::value& req,
                   const op_context& ctx, bool degraded);

// --- handlers (result payloads; throw request_error on bad input) ------

json::value op_lmhat(const json::value& req, const op_context& ctx);
json::value op_lm_estimate(const json::value& req, const op_context& ctx,
                           bool degraded);
json::value op_reachability(const json::value& req, const op_context& ctx,
                            bool degraded);
json::value op_metrics(const json::value& req, const op_context& ctx);
json::value op_healthz(const json::value& req, const op_context& ctx);

// Group membership ops (service/ops_group.cpp). Stateful: the result is a
// deterministic function of the request and the owning group's op
// history, so responses are byte-identical to any serial replay that
// keeps each group's request order.
json::value op_group_create(const json::value& req, const op_context& ctx);
json::value op_group_join(const json::value& req, const op_context& ctx);
json::value op_group_leave(const json::value& req, const op_context& ctx);
json::value op_group_stats(const json::value& req, const op_context& ctx);
json::value op_group_list(const json::value& req, const op_context& ctx);

/// The canonical scope string for a request's topology fields
/// ("<name>:<seed>:<budget>", same defaults as resolve_topology). Group
/// identity is (scope, group name).
std::string group_scope(const json::value& req, const op_context& ctx);

// --- shared request plumbing -------------------------------------------

/// The request "id" echoed in responses: absent → null; anything but a
/// string/number/null is a client bug worth naming.
json::value request_id(const json::value& req);

/// Shared topology resolution: catalog name + optional seed/budget.
/// budget 0 means the entry's native size; otherwise the same scaled
/// build `mcast_lab run` uses (which requires budget >= 64).
std::shared_ptr<const graph> resolve_topology(const json::value& req,
                                              const op_context& ctx);

/// JSON number shorthands shared by the handler units.
json::value num(double v);
json::value num_u(std::uint64_t v);

/// Builds the full response document for one parsed request: extracts the
/// id and op, calls `run(op, req)` for the result payload, and maps every
/// failure to the typed error document of the wire protocol. Never throws.
using run_fn =
    std::function<json::value(const std::string& op, const json::value& req)>;
json::value response_document(const json::value& req,
                              const run_fn& run) noexcept;

}  // namespace mcast::service
