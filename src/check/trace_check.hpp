// Chrome-trace validation: parses the `mcast_lab run --profile` output
// (trace_event JSON) and evaluates the span rules of an expectation spec.
//
// Checks available through the spec grammar:
//   span <child> within <parent>  — every child span is enclosed in time
//       by some parent span (cross-lane: the scheduler's sweep_point
//       spans live on worker lanes while experiment:* lives on the main
//       lane, so enclosure is a wall-clock property, not a stack one);
//       with the `same_trace` modifier, enclosure additionally requires
//       the parent to carry the child's (nonzero) trace id — the
//       per-request form used by the service specs, where concurrent
//       requests interleave and timing containment alone is ambiguous;
//   span <glob> budget_ms <B>     — per-span duration budget;
//   span <glob> count <cmp> <N>   — population assertions;
//   trace dropped <cmp> <N>       — ring-buffer overwrite limit;
//   trace nested                  — per-lane structural check: two spans
//       on one lane must nest or be disjoint. RAII spans can never
//       partially overlap on their own thread, so a partial overlap is
//       evidence of clock trouble or ring truncation splitting a scope.
//
// parse_trace is strict: a malformed event (wrong type, missing field)
// throws std::invalid_argument naming the index — the spec-error exit
// path (2) of both `mcast_lab check` and `mcast_lab trace`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/eval.hpp"
#include "check/spec.hpp"
#include "common/json.hpp"

namespace mcast::check {

/// One complete ("ph": "X") event. Times are microseconds, as serialized.
struct span_event {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;   ///< args.trace_id (hex), 0 when untagged
  std::uint64_t span_id = 0;    ///< args.span (hex), 0 when untagged
  std::uint64_t parent_id = 0;  ///< args.parent (hex), 0 for a root
};

struct parsed_trace {
  std::vector<span_event> spans;  ///< "X" events, file order
  std::size_t events = 0;         ///< all events, any phase
  std::uint64_t dropped = 0;      ///< otherData.dropped
};

/// Parses a hex id of at most 16 digits, as obs::write_chrome_trace and
/// the access log write them (%016llx). False on anything else.
bool parse_hex_id(const std::string& text, std::uint64_t& out);

/// Parses a trace_event document ({"traceEvents": [...]} or a bare
/// array). Throws std::invalid_argument on a malformed event.
parsed_trace parse_trace(const json::value& doc);

/// Evaluates every trace-scoped rule in `s`.
std::vector<violation> eval_trace_rules(const spec& s,
                                        const parsed_trace& trace);

}  // namespace mcast::check
