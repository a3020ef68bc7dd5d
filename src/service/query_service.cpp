#include "service/query_service.hpp"

#include <chrono>
#include <utility>
#include <string>
#include <vector>

#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/cache.hpp"

namespace mcast::service {

namespace {

// --- batch envelope ----------------------------------------------------
//
//   {"op":"batch","id":7,"ops":[{"op":"lmhat",...},{"op":"healthz"}]}
//   → {"id":7,"ok":true,"op":"batch","result":{"count":2,"ok_count":2,
//      "error_count":0,"results":[<full response doc>, ...]}}
//
// Sub-op documents are exactly the lines the same requests would get
// standalone, in request order; one bad sub-op never fails the envelope
// (its slot carries the typed error instead). Envelopes must not nest.

/// Validates the envelope's "ops" member: present, an array, non-empty,
/// at most limits.max_batch_ops entries. Returns the array.
const json::value& batch_subops(const json::value& req,
                                const service_limits& limits) {
  const json::value& ops = require_member(req, "ops");
  if (!ops.is(json::value::kind::array)) {
    throw request_error(error_code::bad_request,
                        "field 'ops' must be an array of requests");
  }
  if (ops.items().empty()) {
    throw request_error(error_code::bad_request,
                        "field 'ops' must not be empty");
  }
  if (ops.items().size() > limits.max_batch_ops) {
    throw request_error(error_code::limit_exceeded,
                        "field 'ops' exceeds the service cap of " +
                            std::to_string(limits.max_batch_ops) +
                            " sub-ops");
  }
  return ops;
}

/// The response document for one batch slot: non-objects get a typed
/// bad_request doc, objects run through response_document(sub, run).
/// Each slot is wrapped in a "batch.subop" span.
json::value subop_document(const json::value& sub, const run_fn& run,
                           const std::string& parent_trace) noexcept {
  obs::span subop_span("batch.subop");
  if (!sub.is(json::value::kind::object)) {
    return error_document(error_code::bad_request,
                          "batch sub-op must be a JSON object",
                          json::value(), parent_trace);
  }
  // Slots without their own token inherit the envelope's, so per-slot
  // typed errors still correlate to the parent request client-side. A
  // slot that sets one keeps it (and its document stays byte-for-byte
  // the standalone response).
  if (!parent_trace.empty() && sub.get("trace") == nullptr) {
    json::value copy = sub;
    copy.set("trace", json::value::string(parent_trace));
    return response_document(copy, run);
  }
  return response_document(sub, run);
}

/// Assembles the envelope's result payload from per-slot response docs
/// (already in request order).
json::value make_batch_result(std::vector<json::value>&& docs) {
  std::size_t ok_count = 0;
  json::value results = json::value::array();
  for (json::value& doc : docs) {
    const json::value* ok = doc.get("ok");
    if (ok != nullptr && ok->is(json::value::kind::boolean) && ok->as_bool()) {
      ++ok_count;
    }
    results.push(std::move(doc));
  }
  json::value result = json::value::object();
  result.set("count", num_u(docs.size()));
  result.set("ok_count", num_u(ok_count));
  result.set("error_count", num_u(docs.size() - ok_count));
  result.set("results", std::move(results));
  return result;
}

}  // namespace

query_service::query_service(service_limits limits) {
  ctx_.limits = limits;
  ctx_.resolve = [](const std::string& name, std::uint64_t seed,
                    node_id budget) {
    return shared_topology_cache().get(name, seed, budget);
  };
  // One manager holds every live group.
  ctx_.groups = std::make_shared<group_manager>();
}

void query_service::set_stats_source(std::function<net::server_stats()> fn) {
  ctx_.stats = std::move(fn);
}

void query_service::set_pressure_source(std::function<double()> fn) {
  pressure_fn_ = std::move(fn);
}

double query_service::pressure() const {
  return pressure_fn_ ? pressure_fn_() : 0.0;
}

std::string query_service::handle(const std::string& line) noexcept {
  json::value req;
  try {
    req = parse_request(line);
  } catch (const request_error& e) {
    if (obs::access_entry* entry = obs::access_current()) {
      entry->outcome = error_code_name(e.code());
    }
    return error_response(e.code(), e.what(), json::value());
  }
  json::value doc = response_document(
      req, [this](const std::string& op, const json::value& r) {
        return dispatch(op, r);
      });
  const auto begun = std::chrono::steady_clock::now();
  std::string response = json::dump_compact(doc);
  const std::uint64_t serialize_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begun)
          .count());
  obs::record(obs::histogram::svc_serialize_ns, serialize_ns);
  if (obs::access_entry* entry = obs::access_current()) {
    entry->serialize_ns = serialize_ns;
  }
  return response;
}

bool query_service::shed_gate(const std::string& op) const {
  // Cost-aware shedding: only the Monte-Carlo ops pay the overload
  // bill. Cheap ops (lmhat, metrics, healthz) stay live at any pressure
  // so health checks and closed-form queries keep working.
  const double p = pressure();
  if (p >= shed_.refuse_at) {
    obs::add(obs::counter::svc_shed_refused);
    throw request_error(error_code::shed,
                        "op '" + op + "' shed under load (pressure " +
                            std::to_string(p) + "); retry with backoff");
  }
  if (p >= shed_.degrade_at) {
    obs::add(obs::counter::svc_shed_degraded);
    return true;
  }
  return false;
}

json::value query_service::dispatch(const std::string& op,
                                    const json::value& req) {
  if (op == "batch") return run_batch(req);
  const op_entry* entry = find_op(op);
  if (entry == nullptr) {
    throw request_error(error_code::unknown_op, "unknown op '" + op + "'");
  }
  const bool degraded = entry->sheddable ? shed_gate(op) : false;
  return run_op(*entry, req, ctx_, degraded);
}

json::value query_service::run_batch(const json::value& req) {
  static const char* const allowed[] = {"op", "id", "trace", "ops", nullptr};
  reject_unknown_keys(req, allowed);
  const json::value& ops = batch_subops(req, ctx_.limits);
  const std::string parent_trace = trace_token(req);
  obs::add(obs::counter::svc_batch_requests);

  // Sub-ops run serially in request order on this thread.
  std::vector<json::value> docs;
  docs.reserve(ops.items().size());
  for (const json::value& sub : ops.items()) {
    obs::add(obs::counter::svc_batch_subops);
    docs.push_back(subop_document(
        sub,
        [this](const std::string& op, const json::value& r) {
          if (op == "batch") {
            throw request_error(error_code::bad_request,
                                "batch must not contain a nested batch");
          }
          return dispatch(op, r);
        },
        parent_trace));
    obs::add(obs::counter::svc_batch_spliced);
  }
  return make_batch_result(std::move(docs));
}

}  // namespace mcast::service
