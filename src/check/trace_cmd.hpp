// The `mcast_lab trace` verb: request-centric views over the tracing
// artifacts — a Chrome-trace profile (`--profile`, span events tagged
// with args.trace_id) optionally joined with the structured access log
// (`--access-log`, JSONL, schema mcast-access-log/1) on the trace id.
//
// Views:
//   * default         — the top-K span names by cumulative time (total,
//     count, mean and max; untagged spans count too, so a lab profile
//     summarizes as well); one line per traced request: id, root span,
//     span count, wall time, and (when the access log is given) the
//     joined op/outcome/latency-split record; the top-K slowest requests,
//     each with its critical path (from the root, the child that ends
//     last, via args.span/args.parent); and, from the access log,
//     reconstructed retry attempt chains (client tokens of the form
//     "<base>-a<N>").
//   * --trace-id=HEX  — a single request in full: its spans in start
//     order with lane and duration, plus every access record that
//     carries the id.
//
// Exit codes mirror `mcast_lab check`:
//   0 — artifacts parsed and the view was printed
//   1 — usage error (mapped by the lab CLI)
//   2 — input error: unreadable/malformed profile or access log, or a
//       --trace-id that appears in neither artifact
#pragma once

#include <string>
#include <vector>

namespace mcast::check {

/// Runs `trace` with the verb's arguments (everything after "trace").
int run_trace(const std::vector<std::string>& args);

}  // namespace mcast::check
