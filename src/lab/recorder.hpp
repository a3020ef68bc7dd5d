// Ordered, structured capture of an experiment's output.
//
// The old per-figure binaries wrote straight to stdout; the engine instead
// hands every run (and every parallel sweep point) a `recorder`. It keeps
// the items *in emission order* so `render()` reproduces the classic
// harness text — `# series:` blocks, `FIT:` lines, aligned tables — byte
// for byte, while also exposing the series and fits as data for the JSON
// run manifest and for tests.
//
// FIT lines double as the structured fit channel: the harness convention
// is `FIT: <label> k1=v1 k2=v2 ...`, so `fit()` parses every `k=<number>`
// token out of the text and the manifest gets the fitted exponents without
// experiments having to report them twice.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "analysis/series.hpp"

namespace mcast {
class table_writer;
}  // namespace mcast

namespace mcast::lab {

/// One captured FIT line, with any `key=<number>` pairs parsed out.
struct fit_entry {
  std::string label;
  std::string text;
  std::vector<std::pair<std::string, double>> values;
};

class recorder {
 public:
  /// Captures one named x/y curve (rendered exactly like print_series).
  void series(const std::string& label, const std::vector<double>& x,
              const std::vector<double>& y);

  /// Captures one FIT line (rendered exactly like print_fit_line).
  void fit(const std::string& label, const std::string& text);

  /// Captures a finished table (rendered via table_writer::print).
  void table(const table_writer& t);

  /// Captures one raw text line; a trailing newline is appended.
  void text(const std::string& line);

  /// Appends every item of `other` after this recorder's items — how the
  /// context::sweep splices sweep-point outputs back in deterministic order.
  void splice(recorder&& other);

  /// Renders all items in emission order, matching the classic harness
  /// output format.
  void render(std::ostream& out) const;
  std::string str() const;

  const std::vector<xy_series>& all_series() const { return series_; }
  const std::vector<fit_entry>& fits() const { return fits_; }

 private:
  enum class kind { series, fit, block };
  struct item {
    kind k;
    std::size_t index;  // into the matching store below
  };

  std::vector<item> items_;
  std::vector<xy_series> series_;
  std::vector<fit_entry> fits_;
  std::vector<std::string> blocks_;  // pre-rendered tables / raw lines
};

}  // namespace mcast::lab
