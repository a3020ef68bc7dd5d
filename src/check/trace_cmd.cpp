#include "check/trace_cmd.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "check/command.hpp"
#include "check/trace_check.hpp"
#include "common/json.hpp"
#include "obs/access_log.hpp"

namespace mcast::check {

namespace {

struct trace_args {
  std::string profile_path;
  std::string access_log_path;  // optional
  std::uint64_t trace_id = 0;   // 0 = no filter
  std::size_t top = 10;
};

[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message);
}

std::string fmt_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string fmt_us(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string fmt_ns_as_us(std::uint64_t ns) {
  return fmt_us(static_cast<double>(ns) / 1000.0);
}

trace_args parse_args(const std::vector<std::string>& args) {
  trace_args out;
  const auto value_of = [&args](std::size_t& i,
                                const std::string& flag) -> std::string {
    const std::string& arg = args[i];
    if (arg.size() > flag.size() && arg.compare(0, flag.size(), flag) == 0 &&
        arg[flag.size()] == '=') {
      return arg.substr(flag.size() + 1);
    }
    if (i + 1 >= args.size()) usage_error("trace: " + flag + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto is_flag = [&arg](const char* flag) {
      return arg == flag || arg.rfind(std::string(flag) + "=", 0) == 0;
    };
    if (is_flag("--profile")) {
      out.profile_path = value_of(i, "--profile");
    } else if (is_flag("--access-log")) {
      out.access_log_path = value_of(i, "--access-log");
    } else if (is_flag("--trace-id")) {
      const std::string text = value_of(i, "--trace-id");
      if (!parse_hex_id(text, out.trace_id) || out.trace_id == 0) {
        usage_error("trace: --trace-id wants a nonzero hex id (<= 16 "
                    "digits), got '" +
                    text + "'");
      }
    } else if (is_flag("--top")) {
      const std::string text = value_of(i, "--top");
      std::size_t pos = 0;
      unsigned long long v = 0;
      try {
        v = std::stoull(text, &pos);
      } catch (...) {
        pos = 0;
      }
      if (pos != text.size() || text.empty()) {
        usage_error("trace: --top wants a non-negative integer, got '" +
                    text + "'");
      }
      out.top = static_cast<std::size_t>(v);
    } else {
      usage_error("trace: unknown argument '" + arg + "'");
    }
  }
  if (out.profile_path.empty()) usage_error("trace: --profile is required");
  return out;
}

json::value load_json(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw spec_error(std::string(what) + " '" + path + "': cannot open");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return json::parse(text.str());
  } catch (const std::exception& e) {
    throw spec_error(std::string(what) + " '" + path + "': " + e.what());
  }
}

/// One parsed access-log record (schema mcast-access-log/1).
struct access_record {
  std::uint64_t trace_id = 0;
  std::string token;
  std::string op;
  std::string outcome;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t serialize_ns = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t total_ns = 0;
  bool degraded = false;
  bool shed = false;
  bool chaos = false;
  bool slow = false;
  int line_no = 0;
};

[[noreturn]] void bad_record(const std::string& path, int line_no,
                             const std::string& what) {
  throw spec_error("access log '" + path + "': line " +
                   std::to_string(line_no) + ": " + what);
}

std::string string_field(const json::value& doc, const std::string& path,
                         int line_no, const char* key) {
  const json::value* v = doc.get(key);
  if (v == nullptr || !v->is(json::value::kind::string)) {
    bad_record(path, line_no, std::string("missing or non-string '") + key +
                                  "'");
  }
  return v->as_string();
}

std::uint64_t u64_field(const json::value& doc, const std::string& path,
                        int line_no, const char* key) {
  const json::value* v = doc.get(key);
  if (v == nullptr || !v->is(json::value::kind::number)) {
    bad_record(path, line_no, std::string("missing or non-number '") + key +
                                  "'");
  }
  return static_cast<std::uint64_t>(v->as_number());
}

bool bool_field(const json::value& doc, const std::string& path, int line_no,
                const char* key) {
  const json::value* v = doc.get(key);
  if (v == nullptr || !v->is(json::value::kind::boolean)) {
    bad_record(path, line_no, std::string("missing or non-boolean '") + key +
                                  "'");
  }
  return v->as_bool();
}

std::vector<access_record> load_access_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw spec_error("access log '" + path + "': cannot open");
  std::vector<access_record> out;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::value doc;
    try {
      doc = json::parse(line);
    } catch (const std::exception& e) {
      bad_record(path, line_no, e.what());
    }
    if (!doc.is(json::value::kind::object)) {
      bad_record(path, line_no, "record is not an object");
    }
    const std::string schema = string_field(doc, path, line_no, "schema");
    if (schema != obs::k_access_log_schema) {
      bad_record(path, line_no,
                 "unexpected schema '" + schema + "' (want " +
                     obs::k_access_log_schema + ")");
    }
    access_record r;
    r.line_no = line_no;
    const std::string id = string_field(doc, path, line_no, "trace");
    if (!parse_hex_id(id, r.trace_id)) {
      bad_record(path, line_no, "'trace' is not a hex id: '" + id + "'");
    }
    r.token = string_field(doc, path, line_no, "token");
    r.op = string_field(doc, path, line_no, "op");
    r.outcome = string_field(doc, path, line_no, "outcome");
    r.queue_wait_ns = u64_field(doc, path, line_no, "queue_wait_ns");
    r.compute_ns = u64_field(doc, path, line_no, "compute_ns");
    r.serialize_ns = u64_field(doc, path, line_no, "serialize_ns");
    r.write_ns = u64_field(doc, path, line_no, "write_ns");
    r.total_ns = u64_field(doc, path, line_no, "total_ns");
    r.degraded = bool_field(doc, path, line_no, "degraded");
    r.shed = bool_field(doc, path, line_no, "shed");
    r.chaos = bool_field(doc, path, line_no, "chaos");
    r.slow = bool_field(doc, path, line_no, "slow");
    out.push_back(std::move(r));
  }
  return out;
}

/// One traced request assembled from both artifacts. Either side may be
/// missing: spans without an access record (client-side traces, or the
/// log was off), access records without spans (ring overwrote them).
struct request_view {
  std::uint64_t trace_id = 0;
  std::vector<const span_event*> spans;  // start-ordered
  std::vector<const access_record*> records;

  const span_event* root() const noexcept {
    return spans.empty() ? nullptr : spans.front();
  }
  /// Slowness key: the access log's wall time when present (it covers
  /// the full request, including the socket write), else the root span.
  double wall_us() const noexcept {
    if (!records.empty()) {
      std::uint64_t ns = 0;
      for (const access_record* r : records) ns = std::max(ns, r->total_ns);
      return static_cast<double>(ns) / 1000.0;
    }
    const span_event* r = root();
    return r == nullptr ? 0.0 : r->dur_us;
  }
};

std::map<std::uint64_t, request_view> group_requests(
    const parsed_trace& trace, const std::vector<access_record>& records) {
  std::map<std::uint64_t, request_view> out;
  for (const span_event& span : trace.spans) {
    if (span.trace_id == 0) continue;
    request_view& view = out[span.trace_id];
    view.trace_id = span.trace_id;
    view.spans.push_back(&span);
  }
  for (auto& [id, view] : out) {
    (void)id;
    std::stable_sort(view.spans.begin(), view.spans.end(),
                     [](const span_event* a, const span_event* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;
                     });
  }
  for (const access_record& r : records) {
    request_view& view = out[r.trace_id];
    view.trace_id = r.trace_id;
    view.records.push_back(&r);
  }
  return out;
}

std::string describe_record(const access_record& r) {
  std::string out = "op=" + (r.op.empty() ? std::string("?") : r.op) +
                    " outcome=" +
                    (r.outcome.empty() ? std::string("?") : r.outcome) +
                    " total=" + fmt_ns_as_us(r.total_ns) + "us";
  if (!r.token.empty()) out += " token=" + r.token;
  if (r.degraded) out += " degraded";
  if (r.shed) out += " shed";
  if (r.chaos) out += " chaos";
  if (r.slow) out += " slow";
  return out;
}

void print_request_detail(const request_view& view) {
  std::cout << "trace " << fmt_id(view.trace_id) << ": "
            << view.spans.size() << " span(s), " << view.records.size()
            << " access record(s)\n";
  for (const span_event* s : view.spans) {
    std::cout << "  span ts=" << fmt_us(s->ts_us) << "us dur="
              << fmt_us(s->dur_us) << "us lane=" << s->tid << " "
              << s->name << "\n";
  }
  for (const access_record* r : view.records) {
    std::cout << "  access line " << r->line_no << ": "
              << describe_record(*r) << " (queue_wait="
              << fmt_ns_as_us(r->queue_wait_ns) << "us compute="
              << fmt_ns_as_us(r->compute_ns) << "us serialize="
              << fmt_ns_as_us(r->serialize_ns) << "us write="
              << fmt_ns_as_us(r->write_ns) << "us)\n";
  }
}

/// The chain of spans that bounds a request's wall time: from the root,
/// descend each step into the child that ends last, the stage the request
/// actually waited for. Children are found through args.span/args.parent;
/// a request without those links is just its root span. The length bound
/// stops a malformed file whose links form a cycle.
std::vector<const span_event*> critical_path(const request_view& view) {
  std::vector<const span_event*> path;
  for (const span_event* node = view.root();
       node != nullptr && path.size() < view.spans.size();) {
    path.push_back(node);
    const span_event* next = nullptr;
    for (const span_event* s : view.spans) {
      if (node->span_id != 0 && s->parent_id == node->span_id &&
          (next == nullptr ||
           s->ts_us + s->dur_us > next->ts_us + next->dur_us)) {
        next = s;
      }
    }
    node = next;
  }
  return path;
}

/// Total, count, mean and max per span name over every complete span,
/// tagged or not, so a lab profile without trace ids summarizes too.
void print_top_spans(const parsed_trace& trace, std::size_t top) {
  struct totals {
    double total_us = 0.0;
    double max_us = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, totals> by_name;
  for (const span_event& s : trace.spans) {
    totals& t = by_name[s.name];
    t.total_us += s.dur_us;
    t.max_us = std::max(t.max_us, s.dur_us);
    ++t.count;
  }
  std::vector<std::pair<std::string, totals>> rows(by_name.begin(),
                                                   by_name.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.total_us > y.second.total_us;
  });
  if (rows.size() > top) rows.resize(top);
  int width = 4;
  for (const auto& [name, t] : rows) {
    width = std::max(width, static_cast<int>(name.size()));
  }
  char buf[512];
  std::snprintf(buf, sizeof buf, "  %-*s %14s %8s %12s %12s\n", width, "span",
                "total_us", "count", "mean_us", "max_us");
  std::cout << "top " << rows.size() << " spans by cumulative time:\n" << buf;
  for (const auto& [name, t] : rows) {
    std::snprintf(buf, sizeof buf, "  %-*s %14.3f %8zu %12.3f %12.3f\n",
                  width, name.c_str(), t.total_us, t.count,
                  t.total_us / static_cast<double>(t.count), t.max_us);
    std::cout << buf;
  }
}

/// Splits a retry-client token "<base>-a<N>" into (base, N); false when
/// the token is not of that shape.
bool split_attempt_token(const std::string& token, std::string& base,
                         int& attempt) {
  const std::size_t pos = token.rfind("-a");
  if (pos == std::string::npos || pos == 0 ||
      pos + 2 >= token.size()) {
    return false;
  }
  int n = 0;
  for (std::size_t i = pos + 2; i < token.size(); ++i) {
    const char ch = token[i];
    if (ch < '0' || ch > '9') return false;
    n = n * 10 + (ch - '0');
    if (n > 1000000) return false;
  }
  if (n < 1) return false;
  base = token.substr(0, pos);
  attempt = n;
  return true;
}

void print_attempt_chains(const std::vector<access_record>& records) {
  // base token -> attempts seen, in attempt order.
  std::map<std::string, std::vector<std::pair<int, const access_record*>>>
      chains;
  for (const access_record& r : records) {
    std::string base;
    int attempt = 0;
    if (split_attempt_token(r.token, base, attempt)) {
      chains[base].emplace_back(attempt, &r);
    }
  }
  // A chain retried iff some attempt number exceeds 1 — several calls
  // may share a base (one `query --trace=BASE` run), so size alone lies.
  const auto retried = [](const std::vector<
                           std::pair<int, const access_record*>>& attempts) {
    for (const auto& [n, r] : attempts) {
      (void)r;
      if (n > 1) return true;
    }
    return false;
  };
  std::size_t multi = 0;
  for (auto& [base, attempts] : chains) {
    (void)base;
    std::sort(attempts.begin(), attempts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (retried(attempts)) ++multi;
  }
  if (chains.empty()) return;
  std::cout << "attempt chains: " << chains.size() << " call(s), " << multi
            << " with retries\n";
  for (const auto& [base, attempts] : chains) {
    if (!retried(attempts)) continue;  // single-attempt calls are noise
    std::cout << "  " << base << ":";
    for (const auto& [n, r] : attempts) {
      std::cout << " a" << n << "="
                << (r->outcome.empty() ? std::string("?") : r->outcome);
    }
    std::cout << "\n";
  }
}

}  // namespace

int run_trace(const std::vector<std::string>& args) {
  const trace_args a = parse_args(args);
  parsed_trace trace;
  std::vector<access_record> records;
  try {
    try {
      trace = parse_trace(load_json(a.profile_path, "profile"));
    } catch (const std::invalid_argument& e) {
      throw spec_error("profile '" + a.profile_path + "': " + e.what());
    }
    if (!a.access_log_path.empty()) {
      records = load_access_log(a.access_log_path);
    }
  } catch (const spec_error& e) {
    std::cerr << "mcast_lab trace: " << e.what() << "\n";
    return exit_spec_error;
  }

  const std::map<std::uint64_t, request_view> requests =
      group_requests(trace, records);

  if (a.trace_id != 0) {
    const auto it = requests.find(a.trace_id);
    if (it == requests.end()) {
      std::cerr << "mcast_lab trace: trace id " << fmt_id(a.trace_id)
                << " appears in neither artifact\n";
      return exit_spec_error;
    }
    print_request_detail(it->second);
    return exit_ok;
  }

  std::size_t tagged = 0;
  for (const span_event& s : trace.spans) {
    if (s.trace_id != 0) ++tagged;
  }
  std::cout << "trace: " << requests.size() << " request(s), " << tagged
            << " tagged span(s), " << (trace.spans.size() - tagged)
            << " untagged, " << records.size() << " access record(s), "
            << trace.dropped << " dropped event(s)\n";
  if (a.top > 0 && !trace.spans.empty()) print_top_spans(trace, a.top);

  for (const auto& [id, view] : requests) {
    std::cout << "  " << fmt_id(id) << " spans=" << view.spans.size();
    if (const span_event* root = view.root()) {
      std::cout << " root=" << root->name;
    }
    std::cout << " wall=" << fmt_us(view.wall_us()) << "us";
    for (const access_record* r : view.records) {
      std::cout << " [" << describe_record(*r) << "]";
    }
    std::cout << "\n";
  }

  if (a.top > 0 && !requests.empty()) {
    std::vector<const request_view*> slowest;
    slowest.reserve(requests.size());
    for (const auto& [id, view] : requests) {
      (void)id;
      slowest.push_back(&view);
    }
    std::stable_sort(slowest.begin(), slowest.end(),
                     [](const request_view* x, const request_view* y) {
                       return x->wall_us() > y->wall_us();
                     });
    if (slowest.size() > a.top) slowest.resize(a.top);
    std::cout << "top " << slowest.size()
              << " slowest, with critical paths:\n";
    for (std::size_t i = 0; i < slowest.size(); ++i) {
      const request_view& view = *slowest[i];
      std::cout << "  " << (i + 1) << ". " << fmt_id(view.trace_id)
                << " wall=" << fmt_us(view.wall_us()) << "us";
      if (!view.records.empty()) {
        std::cout << " " << describe_record(*view.records.front());
      } else if (const span_event* root = view.root()) {
        std::cout << " root=" << root->name;
      }
      const char* sep = "\n     path: ";
      for (const span_event* s : critical_path(view)) {
        std::cout << sep << s->name << " (" << fmt_us(s->dur_us) << "us)";
        sep = " > ";
      }
      std::cout << "\n";
    }
  }

  if (!records.empty()) print_attempt_chains(records);
  return exit_ok;
}

}  // namespace mcast::check
