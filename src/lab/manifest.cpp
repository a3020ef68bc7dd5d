#include "lab/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "obs/metrics_json.hpp"

namespace mcast::lab {

namespace {

json::value param_to_json(const param_value& v) {
  switch (kind_of(v)) {
    case param_kind::i64:
      return json::value::number(
          static_cast<double>(std::get<std::int64_t>(v)));
    case param_kind::u64:
      return json::value::number(
          static_cast<double>(std::get<std::uint64_t>(v)));
    case param_kind::real:
      return json::value::number(std::get<double>(v));
    case param_kind::boolean:
      return json::value::boolean(std::get<bool>(v));
    case param_kind::text:
      return json::value::string(std::get<std::string>(v));
  }
  return json::value();
}

bool is_seed_name(const std::string& name) {
  if (name == "seed") return true;
  const std::size_t n = name.size();
  return n > 5 && name.compare(n - 5, 5, "_seed") == 0;
}

}  // namespace

json::value to_json(const run_record& record) {
  json::value doc = json::value::object();
  doc.set("schema", json::value::string(manifest_schema));
  doc.set("experiment", json::value::string(record.experiment_id));
  doc.set("title", json::value::string(record.title));
  doc.set("claim", json::value::string(record.claim));
  doc.set("scale", json::value::number(record.scale));
  doc.set("threads",
          json::value::number(static_cast<double>(record.threads)));

  json::value params = json::value::object();
  json::value seeds = json::value::object();
  for (const auto& [name, v] : record.parameters.entries()) {
    params.set(name, param_to_json(v));
    if (is_seed_name(name)) seeds.set(name, param_to_json(v));
  }
  doc.set("parameters", std::move(params));
  doc.set("seeds", std::move(seeds));

  doc.set("git_revision", json::value::string(record.git_revision));
  doc.set("timestamp_utc", json::value::string(record.timestamp_utc));
  doc.set("wall_seconds", json::value::number(record.wall_seconds));
  doc.set("cpu_seconds", json::value::number(record.cpu_seconds));

  json::value fits = json::value::array();
  for (const fit_entry& f : record.fits) {
    json::value fit = json::value::object();
    fit.set("label", json::value::string(f.label));
    fit.set("text", json::value::string(f.text));
    json::value values = json::value::object();
    for (const auto& [k, v] : f.values) values.set(k, json::value::number(v));
    fit.set("values", std::move(values));
    fits.push(std::move(fit));
  }
  doc.set("fits", std::move(fits));

  json::value series = json::value::array();
  for (const auto& [label, points] : record.series_summary) {
    json::value s = json::value::object();
    s.set("label", json::value::string(label));
    s.set("points", json::value::number(static_cast<double>(points)));
    series.push(std::move(s));
  }
  doc.set("series", std::move(series));

  json::value groups = json::value::array();
  for (const std::string& g : record.metric_groups) {
    groups.push(json::value::string(g));
  }
  doc.set("metric_groups", std::move(groups));
  doc.set("metrics", obs::metrics_to_json(record.metrics));
  return doc;
}

std::string render_manifest(const run_record& record) {
  return json::dump(to_json(record));
}

void write_manifest(const run_record& record, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("manifest: cannot open '" + path +
                             "' for writing");
  }
  out << render_manifest(record);
  if (!out) {
    throw std::runtime_error("manifest: write to '" + path + "' failed");
  }
}

namespace {

void require(const json::value& doc, const std::string& key,
             json::value::kind kind, const char* kind_word,
             std::vector<std::string>& problems) {
  const json::value* v = doc.get(key);
  if (v == nullptr) {
    problems.push_back("missing field '" + key + "'");
  } else if (!v->is(kind)) {
    problems.push_back("field '" + key + "' is not " + kind_word);
  }
}

}  // namespace

std::vector<std::string> validate_manifest(const json::value& doc) {
  std::vector<std::string> problems;
  if (!doc.is(json::value::kind::object)) {
    problems.push_back("manifest is not a JSON object");
    return problems;
  }
  require(doc, "schema", json::value::kind::string, "a string", problems);
  if (const json::value* schema = doc.get("schema");
      schema != nullptr && schema->is(json::value::kind::string) &&
      schema->as_string() != manifest_schema) {
    problems.push_back("unexpected schema '" + schema->as_string() +
                       "' (want " + std::string(manifest_schema) + ")");
  }
  require(doc, "experiment", json::value::kind::string, "a string", problems);
  if (const json::value* id = doc.get("experiment");
      id != nullptr && id->is(json::value::kind::string) &&
      id->as_string().empty()) {
    problems.push_back("field 'experiment' is empty");
  }
  require(doc, "title", json::value::kind::string, "a string", problems);
  require(doc, "claim", json::value::kind::string, "a string", problems);
  require(doc, "scale", json::value::kind::number, "a number", problems);
  require(doc, "threads", json::value::kind::number, "a number", problems);
  if (const json::value* threads = doc.get("threads");
      threads != nullptr && threads->is(json::value::kind::number) &&
      threads->as_number() < 1) {
    problems.push_back("field 'threads' must be >= 1");
  }
  require(doc, "parameters", json::value::kind::object, "an object", problems);
  require(doc, "seeds", json::value::kind::object, "an object", problems);
  require(doc, "git_revision", json::value::kind::string, "a string",
          problems);
  require(doc, "timestamp_utc", json::value::kind::string, "a string",
          problems);
  require(doc, "wall_seconds", json::value::kind::number, "a number",
          problems);
  require(doc, "cpu_seconds", json::value::kind::number, "a number", problems);
  require(doc, "fits", json::value::kind::array, "an array", problems);
  if (const json::value* fits = doc.get("fits");
      fits != nullptr && fits->is(json::value::kind::array)) {
    for (std::size_t i = 0; i < fits->items().size(); ++i) {
      const json::value& f = fits->items()[i];
      const std::string where = "fits[" + std::to_string(i) + "]";
      if (!f.is(json::value::kind::object)) {
        problems.push_back(where + " is not an object");
        continue;
      }
      require(f, "label", json::value::kind::string, "a string", problems);
      require(f, "text", json::value::kind::string, "a string", problems);
      require(f, "values", json::value::kind::object, "an object", problems);
    }
  }
  require(doc, "series", json::value::kind::array, "an array", problems);
  if (const json::value* series = doc.get("series");
      series != nullptr && series->is(json::value::kind::array)) {
    for (std::size_t i = 0; i < series->items().size(); ++i) {
      const json::value& s = series->items()[i];
      const std::string where = "series[" + std::to_string(i) + "]";
      if (!s.is(json::value::kind::object)) {
        problems.push_back(where + " is not an object");
        continue;
      }
      require(s, "label", json::value::kind::string, "a string", problems);
      require(s, "points", json::value::kind::number, "a number", problems);
    }
  }
  require(doc, "metric_groups", json::value::kind::array, "an array",
          problems);
  if (const json::value* groups = doc.get("metric_groups");
      groups != nullptr && groups->is(json::value::kind::array)) {
    for (std::size_t i = 0; i < groups->items().size(); ++i) {
      if (!groups->items()[i].is(json::value::kind::string)) {
        problems.push_back("metric_groups[" + std::to_string(i) +
                           "] is not a string");
      }
    }
  }
  require(doc, "metrics", json::value::kind::object, "an object", problems);
  if (const json::value* metrics = doc.get("metrics");
      metrics != nullptr && metrics->is(json::value::kind::object)) {
    require(*metrics, "enabled", json::value::kind::boolean, "a boolean",
            problems);
    require(*metrics, "counters", json::value::kind::object, "an object",
            problems);
    require(*metrics, "gauges", json::value::kind::object, "an object",
            problems);
    require(*metrics, "histograms", json::value::kind::object, "an object",
            problems);
    require(*metrics, "derived", json::value::kind::object, "an object",
            problems);
    if (const json::value* derived = metrics->get("derived");
        derived != nullptr && derived->is(json::value::kind::object)) {
      require(*derived, "scheduler_busy_fraction", json::value::kind::number,
              "a number", problems);
      require(*derived, "traversal_passes", json::value::kind::number,
              "a number", problems);
    }
    if (const json::value* histograms = metrics->get("histograms");
        histograms != nullptr &&
        histograms->is(json::value::kind::object)) {
      for (const auto& [name, hist] : histograms->members()) {
        const std::string where = "metrics.histograms." + name;
        if (!hist.is(json::value::kind::object)) {
          problems.push_back(where + " is not an object");
          continue;
        }
        for (const char* field : {"count", "sum", "mean", "p50", "p95",
                                  "p99"}) {
          require(hist, field, json::value::kind::number, "a number",
                  problems);
        }
      }
    }
  }
  return problems;
}

std::string current_git_revision() {
  if (const char* env = std::getenv("MCAST_GIT_REVISION");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace mcast::lab
