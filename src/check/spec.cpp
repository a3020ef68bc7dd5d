#include "check/spec.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace mcast::check {

const char* cmp_name(cmp_op op) noexcept {
  switch (op) {
    case cmp_op::eq: return "==";
    case cmp_op::ne: return "!=";
    case cmp_op::lt: return "<";
    case cmp_op::le: return "<=";
    case cmp_op::gt: return ">";
    case cmp_op::ge: return ">=";
  }
  return "?";
}

bool cmp_eval(double lhs, cmp_op op, double rhs) noexcept {
  switch (op) {
    case cmp_op::eq: return lhs == rhs;
    case cmp_op::ne: return lhs != rhs;
    case cmp_op::lt: return lhs < rhs;
    case cmp_op::le: return lhs <= rhs;
    case cmp_op::gt: return lhs > rhs;
    case cmp_op::ge: return lhs >= rhs;
  }
  return false;
}

bool glob_match(const std::string& glob, const std::string& text) noexcept {
  // Iterative '*' matcher with backtracking to the last star.
  std::size_t g = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (g < glob.size() && (glob[g] == text[t])) {
      ++g, ++t;
    } else if (g < glob.size() && glob[g] == '*') {
      star = g++;
      mark = t;
    } else if (star != std::string::npos) {
      g = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') ++g;
  return g == glob.size();
}

bool spec::needs_trace() const noexcept {
  for (const rule& r : rules) {
    switch (r.kind) {
      case rule_kind::span_within:
      case rule_kind::span_budget_ms:
      case rule_kind::span_count:
      case rule_kind::trace_dropped:
      case rule_kind::trace_nested:
        return true;
      default:
        break;
    }
  }
  return false;
}

bool spec::needs_baseline() const noexcept {
  for (const rule& r : rules) {
    if (r.kind == rule_kind::gate) return true;
  }
  return false;
}

std::string validate_metric_path(const std::string& path) {
  const auto starts = [&path](const char* prefix) {
    return path.rfind(prefix, 0) == 0;
  };
  if (starts("counter.")) {
    obs::counter c;
    if (obs::counter_from_name(path.substr(8), c)) return {};
    return "unknown metric '" + path + "'";
  }
  if (starts("gauge.")) {
    obs::gauge g;
    if (obs::gauge_from_name(path.substr(6), g)) return {};
    return "unknown metric '" + path + "'";
  }
  if (starts("hist.")) {
    const std::string rest = path.substr(5);
    const std::size_t dot = rest.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == rest.size()) {
      return "histogram metric needs the form hist.<name>.<field>, got '" +
             path + "'";
    }
    const std::string field = rest.substr(dot + 1);
    if (field != "count" && field != "sum" && field != "mean" &&
        field != "p50" && field != "p95" && field != "p99") {
      return "unknown histogram field '" + field +
             "' (want count/sum/mean/p50/p95/p99)";
    }
    obs::histogram h;
    if (obs::histogram_from_name(rest.substr(0, dot), h)) return {};
    return "unknown metric '" + path + "'";
  }
  if (starts("derived.")) {
    const std::string rest = path.substr(8);
    if (rest == "scheduler_busy_fraction" || rest == "traversal_passes") {
      return {};
    }
    return "unknown metric '" + path + "'";
  }
  if (starts("fit.")) {
    const std::string rest = path.substr(4);
    const std::size_t dot = rest.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == rest.size()) {
      return "fit metric needs the form fit.<label>.<key>, got '" + path +
             "'";
    }
    return {};  // labels are experiment-defined; resolved at eval time
  }
  if (path == "wall_seconds" || path == "cpu_seconds" || path == "scale" ||
      path == "threads") {
    return {};
  }
  return "unknown metric '" + path + "'";
}

namespace {

struct token {
  std::string text;
  std::size_t col = 1;  ///< 1-based column of the first character
};

std::vector<token> tokenize(const std::string& line) {
  std::vector<token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    out.push_back({line.substr(begin, i - begin), begin + 1});
  }
  return out;
}

[[noreturn]] void fail(const std::string& filename, int line_no,
                       std::size_t col, const std::string& line,
                       const std::string& message) {
  std::ostringstream out;
  out << filename << ":" << line_no << ":" << col << ": " << message << "\n"
      << "  " << line << "\n"
      << "  " << std::string(col == 0 ? 0 : col - 1, ' ') << "^";
  throw spec_error(out.str());
}

// Strict finite double: the whole token must parse (lab/params style).
bool strict_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

bool parse_cmp(const std::string& text, cmp_op& out) {
  if (text == "==") out = cmp_op::eq;
  else if (text == "!=") out = cmp_op::ne;
  else if (text == "<") out = cmp_op::lt;
  else if (text == "<=") out = cmp_op::le;
  else if (text == ">") out = cmp_op::gt;
  else if (text == ">=") out = cmp_op::ge;
  else return false;
  return true;
}

bool is_cmp_token(const std::string& text) {
  cmp_op ignored;
  return parse_cmp(text, ignored);
}

// Context threaded through the directive parsers for error reporting.
struct cursor {
  const std::string& filename;
  int line_no;
  const std::string& line;
  const std::vector<token>& tokens;
  std::size_t next = 0;

  [[noreturn]] void fail_at(std::size_t col, const std::string& msg) const {
    fail(filename, line_no, col, line, msg);
  }
  [[noreturn]] void fail_here(const std::string& msg) const {
    // Point past the end of the line when a token is missing.
    fail_at(next < tokens.size() ? tokens[next].col : line.size() + 1, msg);
  }
  const token& take(const std::string& what) {
    if (next >= tokens.size()) fail_here("expected " + what);
    return tokens[next++];
  }
  void done() {
    if (next < tokens.size()) {
      fail_at(tokens[next].col,
              "unexpected trailing token '" + tokens[next].text + "'");
    }
  }
};

std::string parse_metric(cursor& c) {
  const token& t = c.take("a metric name");
  const std::string problem = validate_metric_path(t.text);
  if (!problem.empty()) c.fail_at(t.col, problem);
  return t.text;
}

double parse_number(cursor& c, const std::string& what) {
  const token& t = c.take(what);
  double v = 0.0;
  if (!strict_number(t.text, v)) {
    c.fail_at(t.col, what + " must be a finite number, got '" + t.text + "'");
  }
  return v;
}

cmp_op parse_cmp_token(cursor& c) {
  const token& t = c.take("a comparison operator");
  cmp_op op;
  if (!parse_cmp(t.text, op)) {
    c.fail_at(t.col, "bad operator '" + t.text +
                         "' (want == != < <= > >=)");
  }
  return op;
}

// Parses a signed sum of metric refs and literals, stopping before a
// comparison operator or end of line.
expr parse_expr(cursor& c, const char* side) {
  expr e;
  const std::size_t begin_col =
      c.next < c.tokens.size() ? c.tokens[c.next].col : c.line.size() + 1;
  double sign = 1.0;
  bool expect_term = true;
  while (true) {
    if (c.next >= c.tokens.size() || is_cmp_token(c.tokens[c.next].text)) {
      if (expect_term) {
        c.fail_here(std::string("expected a metric or number on the ") +
                    side + " side");
      }
      break;
    }
    const token& t = c.tokens[c.next];
    if (expect_term) {
      term term_;
      term_.sign = sign;
      const char first = t.text[0];
      if (std::isalpha(static_cast<unsigned char>(first)) || first == '_') {
        const std::string problem = validate_metric_path(t.text);
        if (!problem.empty()) c.fail_at(t.col, problem);
        term_.metric = t.text;
      } else {
        term_.is_literal = true;
        if (!strict_number(t.text, term_.literal)) {
          c.fail_at(t.col, "expected a metric or number, got '" + t.text +
                               "'");
        }
      }
      e.terms.push_back(std::move(term_));
      ++c.next;
      expect_term = false;
    } else {
      if (t.text == "+") sign = 1.0;
      else if (t.text == "-") sign = -1.0;
      else c.fail_at(t.col, "expected '+', '-' or a comparison operator, "
                            "got '" + t.text + "'");
      ++c.next;
      expect_term = true;
    }
  }
  const std::size_t end_col =
      c.next < c.tokens.size() ? c.tokens[c.next].col : c.line.size() + 1;
  if (end_col > begin_col && begin_col <= c.line.size()) {
    e.source = c.line.substr(begin_col - 1, end_col - begin_col);
    while (!e.source.empty() && e.source.back() == ' ') e.source.pop_back();
  }
  return e;
}

rule parse_directive(const std::string& line, int line_no,
                     const std::string& filename) {
  const std::vector<token> tokens = tokenize(line);
  cursor c{filename, line_no, line, tokens};
  rule r;
  r.line = line_no;
  r.source = line;
  // Trim for the stored source (messages quote it verbatim otherwise).
  while (!r.source.empty() &&
         std::isspace(static_cast<unsigned char>(r.source.front()))) {
    r.source.erase(r.source.begin());
  }
  while (!r.source.empty() &&
         std::isspace(static_cast<unsigned char>(r.source.back()))) {
    r.source.pop_back();
  }

  const token& head = c.take("a directive");
  if (head.text == "assert") {
    r.kind = rule_kind::assert_cmp;
    r.lhs = parse_expr(c, "left");
    r.op = parse_cmp_token(c);
    r.rhs = parse_expr(c, "right");
    c.done();
  } else if (head.text == "range") {
    r.kind = rule_kind::range;
    r.metric = parse_metric(c);
    const std::size_t lo_col =
        c.next < tokens.size() ? tokens[c.next].col : line.size() + 1;
    r.lo = parse_number(c, "range low bound");
    r.hi = parse_number(c, "range high bound");
    if (r.lo > r.hi) {
      c.fail_at(lo_col, "range bounds are inverted (low > high)");
    }
    c.done();
  } else if (head.text == "present" || head.text == "absent") {
    const bool present = head.text == "present";
    const token& what = c.take("'group' or 'fit'");
    if (what.text == "group") {
      r.kind = present ? rule_kind::present_group : rule_kind::absent_group;
    } else if (what.text == "fit" && present) {
      r.kind = rule_kind::present_fit;
    } else {
      c.fail_at(what.col, present
                              ? "expected 'group' or 'fit', got '" +
                                    what.text + "'"
                              : "expected 'group', got '" + what.text + "'");
    }
    r.name = c.take("a name").text;
    c.done();
  } else if (head.text == "span") {
    r.name = c.take("a span name glob").text;
    const token& verb = c.take("'within', 'budget_ms' or 'count'");
    if (verb.text == "within") {
      r.kind = rule_kind::span_within;
      r.parent = c.take("a parent span glob").text;
      if (c.next < tokens.size()) {
        const token& mod = c.take("'same_trace'");
        if (mod.text != "same_trace") {
          c.fail_at(mod.col,
                    "expected 'same_trace' or end of line, got '" + mod.text +
                        "'");
        }
        r.same_trace = true;
      }
    } else if (verb.text == "budget_ms") {
      r.kind = rule_kind::span_budget_ms;
      const std::size_t col =
          c.next < tokens.size() ? tokens[c.next].col : line.size() + 1;
      r.number = parse_number(c, "span budget (ms)");
      if (r.number < 0.0) c.fail_at(col, "span budget must be >= 0");
    } else if (verb.text == "count") {
      r.kind = rule_kind::span_count;
      r.op = parse_cmp_token(c);
      r.number = parse_number(c, "span count");
    } else {
      c.fail_at(verb.col, "expected 'within', 'budget_ms' or 'count', got '" +
                              verb.text + "'");
    }
    c.done();
  } else if (head.text == "trace") {
    const token& what = c.take("'dropped' or 'nested'");
    if (what.text == "dropped") {
      r.kind = rule_kind::trace_dropped;
      r.op = parse_cmp_token(c);
      r.number = parse_number(c, "dropped-event count");
    } else if (what.text == "nested") {
      r.kind = rule_kind::trace_nested;
    } else {
      c.fail_at(what.col,
                "expected 'dropped' or 'nested', got '" + what.text + "'");
    }
    c.done();
  } else if (head.text == "gate") {
    r.kind = rule_kind::gate;
    r.metric = parse_metric(c);
    const token& dir = c.take("'higher_better' or 'lower_better'");
    if (dir.text == "higher_better") r.higher_better = true;
    else if (dir.text == "lower_better") r.higher_better = false;
    else {
      c.fail_at(dir.col, "expected 'higher_better' or 'lower_better', got '" +
                             dir.text + "'");
    }
    const std::size_t col =
        c.next < tokens.size() ? tokens[c.next].col : line.size() + 1;
    r.number = parse_number(c, "relative tolerance");
    if (r.number < 0.0) c.fail_at(col, "relative tolerance must be >= 0");
    c.done();
  } else {
    c.fail_at(head.col, "unknown directive '" + head.text +
                            "' (want assert/range/present/absent/span/"
                            "trace/gate)");
  }
  return r;
}

spec parse_text_spec(const std::string& text, const std::string& filename) {
  spec s;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    s.rules.push_back(parse_directive(line, line_no, filename));
  }
  return s;
}

spec parse_json_spec(const std::string& text, const std::string& filename) {
  json::value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    throw spec_error(filename + ": bad JSON spec: " + e.what());
  }
  if (!doc.is(json::value::kind::object)) {
    throw spec_error(filename + ": JSON spec must be an object with a "
                                "'rules' array of directive strings");
  }
  for (const auto& [key, v] : doc.members()) {
    (void)v;
    if (key != "rules") {
      throw spec_error(filename + ": unknown key '" + key +
                       "' in JSON spec (only 'rules' is allowed)");
    }
  }
  const json::value* rules = doc.get("rules");
  if (rules == nullptr || !rules->is(json::value::kind::array)) {
    throw spec_error(filename + ": JSON spec needs a 'rules' array");
  }
  spec s;
  for (std::size_t i = 0; i < rules->items().size(); ++i) {
    const json::value& entry = rules->items()[i];
    if (!entry.is(json::value::kind::string)) {
      throw spec_error(filename + ": rules[" + std::to_string(i) +
                       "] is not a string");
    }
    s.rules.push_back(
        parse_directive(entry.as_string(), static_cast<int>(i) + 1,
                        filename + ":rules[" + std::to_string(i) + "]"));
  }
  return s;
}

}  // namespace

spec parse_spec(const std::string& text, const std::string& filename) {
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  spec s = (first != std::string::npos && text[first] == '{')
               ? parse_json_spec(text, filename)
               : parse_text_spec(text, filename);
  if (s.rules.empty()) {
    throw spec_error(filename +
                     ": no rules (empty or comment-only expectation files "
                     "are rejected; they would silently pass everything)");
  }
  return s;
}

spec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw spec_error(path + ": cannot open expectation file");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_spec(text.str(), path);
}

}  // namespace mcast::check
