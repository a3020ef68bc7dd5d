#include "service/ops.hpp"

#include <chrono>
#include <utility>

#include "obs/access_log.hpp"
#include "obs/metrics.hpp"

namespace mcast::service {

namespace {

const op_entry op_table[] = {
    {"lmhat", op_kind::lmhat, /*sheddable=*/false},
    {"lm_estimate", op_kind::lm_estimate, true},
    {"reachability", op_kind::reachability, true},
    {"metrics", op_kind::metrics, false},
    {"healthz", op_kind::healthz, false},
    // No group op is sheddable: O(path) mutations stay cheaper than the
    // Monte-Carlo ops even when those are degraded.
    {"group_create", op_kind::group_create, false},
    {"group_join", op_kind::group_join, false},
    {"group_leave", op_kind::group_leave, false},
    {"group_stats", op_kind::group_stats, false},
    {"group_list", op_kind::group_list, false},
};

}  // namespace

const op_entry* find_op(const std::string& op) noexcept {
  for (const op_entry& e : op_table) {
    if (op == e.name) return &e;
  }
  return nullptr;
}

json::value run_op(const op_entry& entry, const json::value& req,
                   const op_context& ctx, bool degraded) {
  switch (entry.kind) {
    case op_kind::lmhat:
      return op_lmhat(req, ctx);
    case op_kind::lm_estimate:
      return op_lm_estimate(req, ctx, degraded);
    case op_kind::reachability:
      return op_reachability(req, ctx, degraded);
    case op_kind::metrics:
      return op_metrics(req, ctx);
    case op_kind::healthz:
      return op_healthz(req, ctx);
    case op_kind::group_create:
      return op_group_create(req, ctx);
    case op_kind::group_join:
      return op_group_join(req, ctx);
    case op_kind::group_leave:
      return op_group_leave(req, ctx);
    case op_kind::group_stats:
      return op_group_stats(req, ctx);
    case op_kind::group_list:
      return op_group_list(req, ctx);
  }
  throw request_error(error_code::internal_error, "unreachable op kind");
}

json::value num(double v) { return json::value::number(v); }
json::value num_u(std::uint64_t v) {
  return json::value::number(static_cast<double>(v));
}

json::value request_id(const json::value& req) {
  const json::value* id = req.get("id");
  if (id == nullptr) return json::value();
  switch (id->type()) {
    case json::value::kind::null:
    case json::value::kind::number:
    case json::value::kind::string:
      return *id;
    default:
      throw request_error(error_code::bad_request,
                          "field 'id' must be a string, number or null");
  }
}

std::shared_ptr<const graph> resolve_topology(const json::value& req,
                                              const op_context& ctx) {
  const std::string name = require_string(req, "topology");
  const std::uint64_t seed = u64_or(req, "topology_seed", 7);
  const std::uint64_t budget =
      bounded_u64(req, "budget", 0, 0, ctx.limits.max_budget);
  if (budget != 0 && budget < 64) {
    throw request_error(error_code::bad_request,
                        "field 'budget' must be 0 (native size) or >= 64");
  }
  return ctx.resolve(name, seed, static_cast<node_id>(budget));
}

namespace {

// Latency attribution: one registry histogram per op name. Unknown ops
// record nothing — they never ran a handler.
void record_op_latency(const std::string& op, std::uint64_t ns) noexcept {
  using obs::histogram;
  if (op == "lmhat") {
    obs::record(histogram::svc_op_lmhat_ns, ns);
  } else if (op == "lm_estimate") {
    obs::record(histogram::svc_op_lm_estimate_ns, ns);
  } else if (op == "reachability") {
    obs::record(histogram::svc_op_reachability_ns, ns);
  } else if (op == "batch") {
    obs::record(histogram::svc_op_batch_ns, ns);
  } else if (op == "metrics" || op == "healthz") {
    obs::record(histogram::svc_op_admin_ns, ns);
  } else if (op.rfind("group_", 0) == 0) {
    obs::record(histogram::svc_op_group_ns, ns);
  }
}

// Access-log annotation on the request's thread. A batch envelope's slots
// pass through here first and the envelope last, so the record that
// survives describes the envelope — which is the request on the wire.
void annotate_access(const json::value& req, const std::string& op,
                     const std::string& trace, const char* outcome,
                     const json::value* result) noexcept {
  obs::access_entry* entry = obs::access_current();
  if (entry == nullptr) return;
  entry->op = op;
  entry->token = trace;
  entry->outcome = outcome;
  entry->shed = outcome == std::string("shed");
  const json::value* topo = req.get("topology");
  if (topo != nullptr && topo->is(json::value::kind::string)) {
    entry->topology = topo->as_string();
  }
  if (result != nullptr) {
    const json::value* degraded = result->get("degraded");
    if (degraded != nullptr && degraded->is(json::value::kind::boolean) &&
        degraded->as_bool()) {
      entry->degraded = true;
    }
  }
}

}  // namespace

json::value response_document(const json::value& req,
                              const run_fn& run) noexcept {
  json::value id;  // null until the request parses far enough to have one
  std::string trace;
  std::string op;
  try {
    id = request_id(req);
    trace = trace_token(req);
    op = require_string(req, "op");
    const auto begun = std::chrono::steady_clock::now();
    json::value result = run(op, req);
    record_op_latency(
        op, static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - begun)
                    .count()));
    annotate_access(req, op, trace, "ok", &result);
    return ok_document(op, std::move(result), id, trace);
  } catch (const request_error& e) {
    annotate_access(req, op, trace, error_code_name(e.code()), nullptr);
    return error_document(e.code(), e.what(), id, trace);
  } catch (const std::invalid_argument& e) {
    // Domain preconditions (unknown catalog name, bad grid, ...) surface
    // as std::invalid_argument from the measurement stack.
    annotate_access(req, op, trace, error_code_name(error_code::bad_request),
                    nullptr);
    return error_document(error_code::bad_request, e.what(), id, trace);
  } catch (const std::exception& e) {
    annotate_access(req, op, trace, error_code_name(error_code::internal_error),
                    nullptr);
    return error_document(error_code::internal_error, e.what(), id, trace);
  } catch (...) {
    annotate_access(req, op, trace, error_code_name(error_code::internal_error),
                    nullptr);
    return error_document(error_code::internal_error, "unknown error", id,
                          trace);
  }
}

}  // namespace mcast::service
