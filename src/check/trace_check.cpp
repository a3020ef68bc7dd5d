#include "check/trace_check.hpp"

#include <algorithm>
#include <cstdio>

namespace mcast::check {

namespace {

// ts and dur are serialized independently at %.3f µs, so a child's
// rounded end can exceed its parent's by one rounding step per endpoint.
constexpr double k_eps_us = 0.002;

std::string fmt_us(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

[[noreturn]] void bad_event(std::size_t index, const std::string& what) {
  throw std::invalid_argument("traceEvents[" + std::to_string(index) +
                              "]: " + what);
}

double number_field(const json::value& event, std::size_t index,
                    const char* field) {
  const json::value* v = event.get(field);
  if (v == nullptr) bad_event(index, std::string("missing '") + field + "'");
  if (!v->is(json::value::kind::number)) {
    bad_event(index, std::string("'") + field + "' is not a number");
  }
  return v->as_number();
}

// A hex id under args (trace_id, span, parent) as written by
// obs::write_chrome_trace. Absent args or an absent key (untraced spans)
// yield 0; a present-but-malformed id is a spec error like any other
// malformed field.
std::uint64_t hex_arg(const json::value* args, std::size_t index,
                      const char* key) {
  if (args == nullptr) return 0;
  const json::value* id = args->get(key);
  if (id == nullptr) return 0;
  std::string field = "'args.";
  field += key;
  field += "'";
  if (!id->is(json::value::kind::string)) {
    bad_event(index, field + " is not a string");
  }
  std::uint64_t out = 0;
  if (!parse_hex_id(id->as_string(), out)) {
    bad_event(index, field + " is not a hex id: '" + id->as_string() + "'");
  }
  return out;
}

}  // namespace

bool parse_hex_id(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  out = 0;
  for (const char ch : text) {
    int digit;
    if (ch >= '0' && ch <= '9') digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f') digit = ch - 'a' + 10;
    else if (ch >= 'A' && ch <= 'F') digit = ch - 'A' + 10;
    else return false;
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

parsed_trace parse_trace(const json::value& doc) {
  const json::value* events = &doc;
  parsed_trace out;
  if (doc.is(json::value::kind::object)) {
    events = doc.get("traceEvents");
    if (events == nullptr || !events->is(json::value::kind::array)) {
      throw std::invalid_argument("trace has no 'traceEvents' array");
    }
    if (const json::value* other = doc.get("otherData");
        other != nullptr && other->is(json::value::kind::object)) {
      if (const json::value* dropped = other->get("dropped");
          dropped != nullptr && dropped->is(json::value::kind::number)) {
        out.dropped = static_cast<std::uint64_t>(dropped->as_number());
      }
    }
  } else if (!doc.is(json::value::kind::array)) {
    throw std::invalid_argument(
        "trace is neither a trace_event object nor a bare event array");
  }
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const json::value& e = events->items()[i];
    if (!e.is(json::value::kind::object)) {
      bad_event(i, "event is not an object");
    }
    ++out.events;
    const json::value* ph = e.get("ph");
    if (ph == nullptr || !ph->is(json::value::kind::string)) {
      bad_event(i, "missing or non-string 'ph'");
    }
    if (ph->as_string() != "X") continue;  // other phases carry no spans
    const json::value* name = e.get("name");
    if (name == nullptr || !name->is(json::value::kind::string)) {
      bad_event(i, "missing or non-string 'name'");
    }
    span_event span;
    span.name = name->as_string();
    span.ts_us = number_field(e, i, "ts");
    span.dur_us = number_field(e, i, "dur");
    if (span.dur_us < 0.0) bad_event(i, "'dur' is negative");
    span.tid = static_cast<std::uint32_t>(number_field(e, i, "tid"));
    const json::value* args = e.get("args");
    if (args != nullptr && !args->is(json::value::kind::object)) {
      bad_event(i, "'args' is not an object");
    }
    span.trace_id = hex_arg(args, i, "trace_id");
    span.span_id = hex_arg(args, i, "span");
    span.parent_id = hex_arg(args, i, "parent");
    out.spans.push_back(std::move(span));
  }
  return out;
}

namespace {

std::string describe(const span_event& s) {
  return "'" + s.name + "' (tid " + std::to_string(s.tid) + ", ts=" +
         fmt_us(s.ts_us) + "us, dur=" + fmt_us(s.dur_us) + "us)";
}

// Per-lane structural nesting: sort one lane's spans by (start asc,
// duration desc) and sweep with a stack of open scopes; a span that
// starts inside the innermost open scope but ends after it partially
// overlaps — impossible for well-formed RAII spans on one thread.
void check_lane_nesting(const rule& r, std::vector<const span_event*> lane,
                        std::vector<violation>& out) {
  std::stable_sort(lane.begin(), lane.end(),
                   [](const span_event* a, const span_event* b) {
                     if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                     return a->dur_us > b->dur_us;
                   });
  std::vector<const span_event*> open;
  for (const span_event* s : lane) {
    while (!open.empty() &&
           open.back()->ts_us + open.back()->dur_us <= s->ts_us + k_eps_us) {
      open.pop_back();
    }
    if (!open.empty()) {
      const span_event* top = open.back();
      if (s->ts_us + s->dur_us > top->ts_us + top->dur_us + k_eps_us) {
        out.push_back({r.line, r.source,
                       "spans overlap without nesting on lane " +
                           std::to_string(s->tid) + ": " + describe(*s) +
                           " crosses the end of " + describe(*top)});
        continue;  // do not open the malformed span
      }
    }
    open.push_back(s);
  }
}

}  // namespace

std::vector<violation> eval_trace_rules(const spec& s,
                                        const parsed_trace& trace) {
  std::vector<violation> out;
  for (const rule& r : s.rules) {
    switch (r.kind) {
      case rule_kind::span_within: {
        for (const span_event& child : trace.spans) {
          if (!glob_match(r.name, child.name)) continue;
          if (r.same_trace && child.trace_id == 0) {
            out.push_back({r.line, r.source,
                           "span " + describe(child) +
                               " carries no trace id, required by "
                               "'same_trace'"});
            continue;
          }
          bool enclosed = false;
          for (const span_event& parent : trace.spans) {
            if (&parent == &child || !glob_match(r.parent, parent.name)) {
              continue;
            }
            if (r.same_trace && parent.trace_id != child.trace_id) continue;
            if (parent.ts_us <= child.ts_us + k_eps_us &&
                parent.ts_us + parent.dur_us + k_eps_us >=
                    child.ts_us + child.dur_us) {
              enclosed = true;
              break;
            }
          }
          if (!enclosed) {
            out.push_back(
                {r.line, r.source,
                 "span " + describe(child) +
                     " not enclosed by any span matching '" + r.parent +
                     (r.same_trace ? "' with the same trace id" : "'")});
          }
        }
        break;
      }
      case rule_kind::span_budget_ms: {
        for (const span_event& span : trace.spans) {
          if (!glob_match(r.name, span.name)) continue;
          if (span.dur_us > r.number * 1000.0) {
            out.push_back({r.line, r.source,
                           "span " + describe(span) + " exceeds budget " +
                               fmt_us(r.number * 1000.0) + "us"});
          }
        }
        break;
      }
      case rule_kind::span_count: {
        std::size_t count = 0;
        for (const span_event& span : trace.spans) {
          if (glob_match(r.name, span.name)) ++count;
        }
        if (!cmp_eval(static_cast<double>(count), r.op, r.number)) {
          out.push_back({r.line, r.source,
                         "span count for '" + r.name + "' is " +
                             std::to_string(count) + ", want " +
                             cmp_name(r.op) + " " +
                             std::to_string(static_cast<long long>(r.number))});
        }
        break;
      }
      case rule_kind::trace_dropped: {
        if (!cmp_eval(static_cast<double>(trace.dropped), r.op, r.number)) {
          out.push_back({r.line, r.source,
                         "trace dropped " + std::to_string(trace.dropped) +
                             " event(s), want " + cmp_name(r.op) + " " +
                             std::to_string(static_cast<long long>(r.number))});
        }
        break;
      }
      case rule_kind::trace_nested: {
        // Group spans by lane, preserving file order within a lane.
        std::vector<std::uint32_t> tids;
        for (const span_event& span : trace.spans) {
          if (std::find(tids.begin(), tids.end(), span.tid) == tids.end()) {
            tids.push_back(span.tid);
          }
        }
        std::sort(tids.begin(), tids.end());
        for (const std::uint32_t tid : tids) {
          std::vector<const span_event*> lane;
          for (const span_event& span : trace.spans) {
            if (span.tid == tid) lane.push_back(&span);
          }
          check_lane_nesting(r, std::move(lane), out);
        }
        break;
      }
      default:
        break;  // manifest / gate rules evaluate elsewhere
    }
  }
  return out;
}

}  // namespace mcast::check
