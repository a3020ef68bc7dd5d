// Declarative expectation specs — the input language of `mcast_lab check`.
//
// A spec is a list of rules over three artifact kinds:
//
//  * run manifests (BENCH_<id>.json): counter/gauge/histogram invariants
//    ("assert counter.mc.source_tasks >= ..."),
//    range assertions, and presence/absence of metric groups and fits;
//  * Chrome traces (`mcast_lab run --profile` output): causal nesting
//    rules ("span sweep_point within experiment:*"), per-span duration
//    budgets, span counts, ring-buffer drop limits, and per-lane
//    structural nesting;
//  * perf baselines: "gate" rules diffing the current manifest against a
//    committed baseline manifest with per-metric relative tolerances.
//
// Files are line-oriented text (# comments, one directive per line); a
// file whose first non-space byte is '{' is instead parsed as JSON of the
// form {"rules": ["<directive>", ...]} so specs can be generated by
// tooling. Parsing is strict in the lab/params tradition: any problem is
// a spec_error whose message carries file:line:col plus a caret-rendered
// copy of the offending line — never a silently ignored directive.
//
// The grammar is documented with examples in docs/expectations.md.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace mcast::check {

// --- comparison operators shared by assert / count / dropped / gate ---

enum class cmp_op { eq, ne, lt, le, gt, ge };

/// "==", "!=", "<", "<=", ">", ">=".
const char* cmp_name(cmp_op op) noexcept;

bool cmp_eval(double lhs, cmp_op op, double rhs) noexcept;

// --- expressions: signed sums of metric refs and numeric literals ---

struct term {
  double sign = 1.0;       ///< +1 or -1
  bool is_literal = false;
  double literal = 0.0;    ///< when is_literal
  std::string metric;      ///< metric path when !is_literal
};

struct expr {
  std::vector<term> terms;
  std::string source;  ///< original text, for violation messages
};

// --- rules ---

enum class rule_kind {
  assert_cmp,     // assert <expr> <cmp> <expr>
  range,          // range <metric> <lo> <hi>            (inclusive)
  present_group,  // present group <name>
  absent_group,   // absent group <name>
  present_fit,    // present fit <label>
  span_within,    // span <glob> within <glob> [same_trace]
  span_budget_ms, // span <glob> budget_ms <number>
  span_count,     // span <glob> count <cmp> <number>
  trace_dropped,  // trace dropped <cmp> <number>
  trace_nested,   // trace nested
  gate,           // gate <metric> higher_better|lower_better <rel_tol>
};

struct rule {
  rule_kind kind = rule_kind::assert_cmp;
  int line = 0;          ///< 1-based line (or JSON rules[] index + 1)
  std::string source;    ///< the directive text, verbatim
  expr lhs, rhs;         ///< assert_cmp
  cmp_op op = cmp_op::eq;
  std::string metric;    ///< range / gate
  double lo = 0.0, hi = 0.0;  ///< range bounds
  std::string name;      ///< group name, fit label, or span name glob
  std::string parent;    ///< span_within parent glob
  /// span_within: restrict enclosure to parents carrying the child's
  /// (nonzero) trace id — the cross-lane form, where structural timing
  /// containment alone cannot tell interleaved requests apart.
  bool same_trace = false;
  double number = 0.0;   ///< budget / count / dropped threshold / tolerance
  bool higher_better = true;  ///< gate direction
};

struct spec {
  std::vector<rule> rules;

  /// True when any rule needs `--trace` / `--baseline` to evaluate.
  bool needs_trace() const noexcept;
  bool needs_baseline() const noexcept;
};

/// Parse failure: what() is fully rendered, e.g.
///   service.expect:3:8: unknown metric 'counter.traversal.bfs_passez'
///     assert counter.traversal.bfs_passez >= 0
///            ^
class spec_error : public std::runtime_error {
 public:
  explicit spec_error(std::string message)
      : std::runtime_error(std::move(message)) {}
};

/// Parses spec text; `filename` seeds error locations. A spec with no
/// rules (empty file, comments only) is a spec_error: an accidentally
/// truncated expectation file must not silently pass everything.
spec parse_spec(const std::string& text, const std::string& filename);

/// Reads and parses `path`; an unreadable file is a spec_error.
spec parse_spec_file(const std::string& path);

/// '*'-wildcard matcher used by span rules ('*' matches any run of
/// characters, all other bytes are literal).
bool glob_match(const std::string& glob, const std::string& text) noexcept;

/// Validates a metric path against the closed namespaces
/// (counter.* / gauge.* / hist.*.<field> / derived.* and the bare
/// manifest scalars); fit.<label>.<key> is shape-checked only, since fit
/// labels are experiment-defined. Returns an empty string when valid,
/// else the error message.
std::string validate_metric_path(const std::string& path);

}  // namespace mcast::check
