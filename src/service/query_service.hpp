// query_service — the request dispatcher behind `mcast_lab serve`.
//
// handle() maps one request line to one response line and never throws:
// every failure mode is a typed error line (service/protocol.hpp). The
// deterministic operations (lmhat, lm_estimate, reachability, batch) are
// pure functions of the request — explicit seeds, the
// thread-count-invariant Monte-Carlo engine, and ordered-key JSON dumping
// make responses byte-identical across worker threads, connection
// interleavings and server restarts. metrics/healthz are the exception:
// they report live registry and uptime state and are exempt from the
// byte-identity guarantee (tests compare only their ok status).
//
// The handler bodies live in service/ops.hpp behind a dispatch table; this
// class runs every op inline on the calling thread (including batch
// sub-ops, serially in request order), resolves topologies through the
// process-wide content-keyed cache and keeps every group in one
// group_manager.
#pragma once

#include <functional>
#include <string>

#include "common/json.hpp"
#include "net/server.hpp"
#include "service/ops.hpp"
#include "service/protocol.hpp"

namespace mcast::service {

class query_service {
 public:
  explicit query_service(service_limits limits = {});

  /// Lets metrics/healthz report live server state (queue depth, accept
  /// and reject counts). Without one they report zeros and the service's
  /// own uptime — the unit-test configuration.
  void set_stats_source(std::function<net::server_stats()> fn);

  /// Enables cost-aware shedding of the expensive ops.
  void set_shed_policy(shed_policy policy) noexcept { shed_ = policy; }

  /// Source of the live pressure number the shed policy compares against.
  /// `mcast_lab serve` wires queue_depth/queue_capacity; tests inject a
  /// constant to exercise both tiers deterministically. Without one the
  /// pressure is 0 and shedding never triggers.
  void set_pressure_source(std::function<double()> fn);

  /// One request line in, one response line out (no trailing newline).
  std::string handle(const std::string& line) noexcept;

  const service_limits& limits() const noexcept { return ctx_.limits; }

 private:
  json::value dispatch(const std::string& op, const json::value& req);
  json::value run_batch(const json::value& req);
  /// Applies the shed policy to a sheddable op: throws request_error(shed)
  /// to refuse, returns true to degrade, false to run at full fidelity.
  bool shed_gate(const std::string& op) const;
  double pressure() const;

  op_context ctx_;
  std::function<double()> pressure_fn_;
  shed_policy shed_;
};

}  // namespace mcast::service
