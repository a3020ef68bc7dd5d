#include "obs/metrics_json.hpp"

namespace mcast::obs {

json::value metrics_to_json(const metrics_snapshot& s) {
  json::value m = json::value::object();
  m.set("enabled", json::value::boolean(s.compiled_in && s.enabled));

  json::value counters = json::value::object();
  for (std::size_t i = 0; i < counter_count; ++i) {
    counters.set(counter_name(static_cast<counter>(i)),
                 json::value::number(static_cast<double>(s.counters[i])));
  }
  m.set("counters", std::move(counters));

  json::value gauges = json::value::object();
  for (std::size_t i = 0; i < gauge_count; ++i) {
    gauges.set(gauge_name(static_cast<gauge>(i)),
               json::value::number(static_cast<double>(s.gauges[i])));
  }
  m.set("gauges", std::move(gauges));

  json::value histograms = json::value::object();
  for (std::size_t i = 0; i < histogram_count; ++i) {
    const histogram_summary& h = s.histograms[i];
    json::value hist = json::value::object();
    hist.set("count", json::value::number(static_cast<double>(h.count)));
    hist.set("sum", json::value::number(static_cast<double>(h.sum)));
    hist.set("mean", json::value::number(h.mean()));
    hist.set("p50", json::value::number(h.p50));
    hist.set("p95", json::value::number(h.p95));
    hist.set("p99", json::value::number(h.p99));
    histograms.set(histogram_name(static_cast<histogram>(i)),
                   std::move(hist));
  }
  m.set("histograms", std::move(histograms));

  json::value derived = json::value::object();
  derived.set("scheduler_busy_fraction",
              json::value::number(scheduler_busy_fraction(s)));
  derived.set("traversal_passes",
              json::value::number(static_cast<double>(traversal_passes(s))));
  m.set("derived", std::move(derived));
  return m;
}

}  // namespace mcast::obs
