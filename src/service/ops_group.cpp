// group_* — the stateful membership ops over group/group_manager.hpp.
//
// Unlike every op before them, these are not pure functions of the
// request: the result depends on the owning group's op history. The
// byte-identity story therefore shifts one level up — a group's state is
// a pure function of the op sequence applied to it, groups are keyed by
// (topology scope, name) in one manager, and pipelined clients see their
// own ops applied in order. Concurrent clients mutating
// disjoint groups thus get responses byte-identical to any serial replay
// of their per-connection sequences (tests/test_service_group.cpp).
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "service/ops.hpp"

namespace mcast::service {

namespace {

// The group ops always run on a context with live group state. A null
// manager means a host wiring bug, not a client error.
group_manager& manager_of(const op_context& ctx) {
  if (ctx.groups == nullptr) {
    throw request_error(error_code::internal_error,
                        "group state is not wired into this context");
  }
  return *ctx.groups;
}

std::string require_group_name(const json::value& req) {
  const std::string name = require_string(req, "group");
  if (name.empty() || name.size() > 128) {
    throw request_error(error_code::bad_request,
                        "field 'group' must be 1..128 bytes");
  }
  return name;
}

const char* mode_name(group_mode mode) {
  return mode == group_mode::source ? "source" : "shared";
}

/// Renders one snapshot as the common result payload of every group op.
json::value snapshot_json(const group_snapshot& snap) {
  json::value out = json::value::object();
  out.set("group", json::value::string(snap.name));
  out.set("scope", json::value::string(snap.scope));
  out.set("mode", json::value::string(mode_name(snap.mode)));
  out.set("root", num_u(snap.root));
  out.set("generation", num_u(snap.generation));
  out.set("members", num_u(snap.members));
  out.set("sites", num_u(snap.sites));
  out.set("links", num_u(snap.links));
  out.set("cost", num(snap.cost));
  out.set("joins", num_u(snap.joins));
  out.set("leaves", num_u(snap.leaves));
  out.set("links_grafted", num_u(snap.links_grafted));
  out.set("links_pruned", num_u(snap.links_pruned));
  out.set("peak_members", num_u(snap.peak_members));
  out.set("peak_links", num_u(snap.peak_links));
  return out;
}

/// Wraps the manager's std::invalid_argument preconditions (unknown
/// group, unreachable site, over-draining leave...) as bad_request so
/// they reach the client as client errors, not internal ones.
template <typename fn_t>
auto as_bad_request(fn_t&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::invalid_argument& e) {
    throw request_error(error_code::bad_request, e.what());
  } catch (const std::out_of_range& e) {
    throw request_error(error_code::bad_request, e.what());
  }
}

}  // namespace

std::string group_scope(const json::value& req, const op_context& ctx) {
  const std::string name = require_string(req, "topology");
  const std::uint64_t seed = u64_or(req, "topology_seed", 7);
  const std::uint64_t budget =
      bounded_u64(req, "budget", 0, 0, ctx.limits.max_budget);
  return name + ":" + std::to_string(seed) + ":" + std::to_string(budget);
}

json::value op_group_create(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {
      "op",   "id",     "trace",         "topology", "topology_seed",
      "budget", "group", "mode",        "source",   "core_strategy",
      "core_seed", nullptr};
  reject_unknown_keys(req, allowed);
  group_manager& groups = manager_of(ctx);
  const std::string scope = group_scope(req, ctx);
  const std::string name = require_group_name(req);
  const auto g = resolve_topology(req, ctx);

  group_config config;
  const std::string mode = string_or(req, "mode", "source");
  if (mode == "source") {
    config.mode = group_mode::source;
    if (req.get("core_strategy") != nullptr ||
        req.get("core_seed") != nullptr) {
      throw request_error(error_code::bad_request,
                          "'core_strategy'/'core_seed' only apply to "
                          "mode 'shared'");
    }
    const std::uint64_t root = u64_or(req, "source", 0);
    if (root >= g->node_count()) {
      throw request_error(
          error_code::bad_request,
          "field 'source' must be < " + std::to_string(g->node_count()));
    }
    config.root = static_cast<node_id>(root);
  } else if (mode == "shared") {
    config.mode = group_mode::shared;
    if (req.get("source") != nullptr) {
      throw request_error(error_code::bad_request,
                          "'source' only applies to mode 'source'");
    }
    const std::string strategy =
        string_or(req, "core_strategy", "path_center");
    if (strategy == "random") {
      config.core = core_strategy::random;
    } else if (strategy == "degree_center") {
      config.core = core_strategy::degree_center;
    } else if (strategy == "path_center") {
      config.core = core_strategy::path_center;
    } else {
      throw request_error(error_code::bad_request,
                          "field 'core_strategy' must be 'random', "
                          "'degree_center' or 'path_center'");
    }
    config.core_seed = u64_or(req, "core_seed", 1);
  } else {
    throw request_error(error_code::bad_request,
                        "field 'mode' must be 'source' or 'shared'");
  }

  if (groups.size() >= ctx.limits.max_groups) {
    throw request_error(error_code::limit_exceeded,
                        "live group cap of " +
                            std::to_string(ctx.limits.max_groups) +
                            " reached; group_list + retire groups first");
  }
  if (groups.contains(scope, name)) {
    throw request_error(error_code::bad_request,
                        "group '" + name + "' already exists in scope " +
                            scope);
  }

  obs::add(obs::counter::svc_group_creates);
  const group_snapshot snap =
      as_bad_request([&] { return groups.create(scope, name, g, config); });
  return snapshot_json(snap);
}

json::value op_group_join(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {
      "op",     "id",    "trace", "topology", "topology_seed",
      "budget", "group", "site",  "count",    nullptr};
  reject_unknown_keys(req, allowed);
  group_manager& groups = manager_of(ctx);
  const std::string scope = group_scope(req, ctx);
  const std::string name = require_group_name(req);
  const std::uint64_t site = require_u64(req, "site");
  const std::uint64_t count =
      bounded_u64(req, "count", 1, 1, ctx.limits.max_group_op_count);

  obs::add(obs::counter::svc_group_joins);
  const group_snapshot snap = as_bad_request([&] {
    return groups.join(scope, name, static_cast<node_id>(site),
                       static_cast<std::uint32_t>(count));
  });
  json::value result = snapshot_json(snap);
  result.set("grafted", num_u(snap.last_grafted));
  return result;
}

json::value op_group_leave(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {
      "op",     "id",    "trace", "topology", "topology_seed",
      "budget", "group", "site",  "count",    nullptr};
  reject_unknown_keys(req, allowed);
  group_manager& groups = manager_of(ctx);
  const std::string scope = group_scope(req, ctx);
  const std::string name = require_group_name(req);
  const std::uint64_t site = require_u64(req, "site");
  const std::uint64_t count =
      bounded_u64(req, "count", 1, 1, ctx.limits.max_group_op_count);

  obs::add(obs::counter::svc_group_leaves);
  const group_snapshot snap = as_bad_request([&] {
    return groups.leave(scope, name, static_cast<node_id>(site),
                        static_cast<std::uint32_t>(count));
  });
  json::value result = snapshot_json(snap);
  result.set("pruned", num_u(snap.last_pruned));
  return result;
}

json::value op_group_stats(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {
      "op",     "id",    "trace", "topology", "topology_seed",
      "budget", "group", nullptr};
  reject_unknown_keys(req, allowed);
  group_manager& groups = manager_of(ctx);
  const std::string scope = group_scope(req, ctx);
  const std::string name = require_group_name(req);

  obs::add(obs::counter::svc_group_stats);
  if (!groups.contains(scope, name)) {
    throw request_error(error_code::bad_request,
                        "unknown group '" + name + "' in scope " + scope);
  }
  return snapshot_json(
      as_bad_request([&] { return groups.stats(scope, name); }));
}

json::value op_group_list(const json::value& req, const op_context& ctx) {
  static const char* const allowed[] = {"op", "id", "trace", nullptr};
  reject_unknown_keys(req, allowed);
  obs::add(obs::counter::svc_group_lists);

  // list() is already in (scope, name) order, the rendering order.
  const std::vector<group_snapshot> snaps = manager_of(ctx).list();

  json::value rows = json::value::array();
  for (const group_snapshot& snap : snaps) {
    rows.push(snapshot_json(snap));
  }
  json::value result = json::value::object();
  result.set("count", num_u(snaps.size()));
  result.set("groups", std::move(rows));
  return result;
}

}  // namespace mcast::service
