// metrics / healthz — live server and registry state. Exempt from the
// byte-identity guarantee (tests compare only their ok status).
#include <utility>

#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "service/ops.hpp"

namespace mcast::service {

namespace {

double uptime_seconds(const op_context& ctx, const net::server_stats& stats) {
  return ctx.stats ? stats.uptime_seconds
                   : std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ctx.started)
                         .count();
}

}  // namespace

json::value op_metrics(const json::value& req, const op_context& ctx) {
  static const char* const bare[] = {"op", "id", "trace", nullptr};
  reject_unknown_keys(req, bare);
  const net::server_stats stats = ctx.stats ? ctx.stats() : net::server_stats{};
  json::value server = json::value::object();
  server.set("accepted", num_u(stats.accepted));
  server.set("rejected", num_u(stats.rejected));
  server.set("requests", num_u(stats.requests));
  server.set("queue_depth", num_u(stats.queue_depth));
  server.set("inflight", num_u(stats.inflight));

  json::value result = json::value::object();
  result.set("uptime_seconds", num(uptime_seconds(ctx, stats)));
  result.set("server", std::move(server));
  result.set("metrics", obs::metrics_to_json(obs::snapshot()));
  return result;
}

json::value op_healthz(const json::value& req, const op_context& ctx) {
  static const char* const bare[] = {"op", "id", "trace", nullptr};
  reject_unknown_keys(req, bare);
  const net::server_stats stats = ctx.stats ? ctx.stats() : net::server_stats{};
  json::value result = json::value::object();
  result.set("status", json::value::string("ok"));
  result.set("uptime_seconds", num(uptime_seconds(ctx, stats)));
  result.set("accepted", num_u(stats.accepted));
  result.set("rejected", num_u(stats.rejected));
  result.set("requests", num_u(stats.requests));
  result.set("queue_depth", num_u(stats.queue_depth));
  result.set("inflight", num_u(stats.inflight));
  return result;
}

}  // namespace mcast::service
