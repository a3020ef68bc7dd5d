// Experiment registry and run context — the declarative core of mcast_lab.
//
// Every figure/table/extension that used to be its own `bench/*.cpp` binary
// is now an `experiment`: a stable id, a one-line claim, a typed parameter
// set with scale-tier defaults, and a run function. Registration is by
// explicit function call (`register_fig2(registry&)` etc., collected in
// bench/register_all.cpp) rather than static initializers, so linking the
// experiments as a static library cannot silently drop any of them.
//
// The `context` passed to a run function is the experiment's entire world:
// typed parameter access, the resolved scale tier, engine-owned threading
// and SPT-cache policy, structured output (series / FIT lines / tables),
// and `sweep()` for fanning independent points over worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "lab/params.hpp"
#include "lab/recorder.hpp"

namespace mcast::lab {

class context;

/// One sweep point: writes the output of point `index` into `rec`. Points
/// run concurrently, so a body must not touch another point's state.
using sweep_fn = std::function<void(std::size_t index, recorder& rec)>;

/// One registered experiment. `run` must be deterministic given the
/// resolved parameters (all randomness seeded from declared params).
struct experiment {
  std::string id;                  ///< stable CLI id, e.g. "fig2"
  std::string title;               ///< one-line summary for `list`
  std::string claim;               ///< "# reproduces:" banner text
  std::vector<param_spec> params;  ///< declared, tiered parameters
  /// Obs metric groups this experiment exercises (e.g. "traversal",
  /// "spt_cache", "scheduler") — documentation surfaced by `describe` and
  /// stamped into the manifest; the registry snapshot itself always
  /// carries every metric.
  std::vector<std::string> metric_groups;
  std::function<void(context&)> run;
};

class registry {
 public:
  /// Registers an experiment; throws std::logic_error on a duplicate or
  /// empty id, or a missing run function.
  void add(experiment e);

  /// Returns the experiment with the given id, or nullptr.
  const experiment* find(const std::string& id) const noexcept;

  /// All experiments in registration order.
  const std::vector<experiment>& all() const noexcept { return experiments_; }

 private:
  std::vector<experiment> experiments_;
};

/// Handed to experiment::run; owns nothing, routes everything.
class context {
 public:
  context(const experiment& exp, const param_set& params, int scale,
          std::size_t threads, bool use_spt_cache, recorder& rec)
      : exp_(exp),
        params_(params),
        scale_(scale),
        threads_(threads),
        use_spt_cache_(use_spt_cache),
        rec_(rec) {}

  const experiment& exp() const noexcept { return exp_; }
  const param_set& params() const noexcept { return params_; }

  // Typed parameter access (throws std::logic_error on undeclared names or
  // kind mismatches — programming errors in the experiment definition).
  std::uint64_t u64(const std::string& name) const { return params_.u64(name); }
  std::int64_t i64(const std::string& name) const { return params_.i64(name); }
  double real(const std::string& name) const { return params_.real(name); }
  bool flag(const std::string& name) const { return params_.flag(name); }
  const std::string& text(const std::string& name) const {
    return params_.text(name);
  }

  /// The resolved scale tier (0 = smoke, 1 = normal, >= 2 = paper).
  int scale() const noexcept { return scale_; }

  /// Worker threads the engine granted this run (>= 1, already resolved).
  std::size_t threads() const noexcept { return threads_; }

  /// Whether Monte-Carlo measurement should reuse cached per-source SPTs.
  bool use_spt_cache() const noexcept { return use_spt_cache_; }

  /// Monte-Carlo parameters with the engine-owned fields (threads, SPT
  /// cache policy) prefilled; the experiment sets sizes and the seed.
  monte_carlo_params monte_carlo() const {
    monte_carlo_params p;
    p.threads = threads_;
    p.use_spt_cache = use_spt_cache_;
    return p;
  }

  // Structured output, in emission order.
  void series(const std::string& label, const std::vector<double>& x,
              const std::vector<double>& y) {
    rec_.series(label, x, y);
  }
  void fit(const std::string& label, const std::string& fit_text) {
    rec_.fit(label, fit_text);
  }
  void table(const table_writer& t) { rec_.table(t); }
  void line(const std::string& raw) { rec_.text(raw); }

  /// Fans `count` independent points over parallel_for (core/parallel.hpp)
  /// with this run's thread budget, then splices their outputs back in index
  /// order — the result is byte-identical to running the points serially.
  /// An exception from a point reaches the caller as parallel_for says.
  void sweep(std::size_t count, const sweep_fn& fn);

  /// Catalog topology through the process-wide content-keyed cache
  /// (topo/cache.hpp): the largest component of `name` built at `seed`,
  /// scaled to `budget` nodes when budget > 0. Byte-identical to
  /// largest_component(find_network(name).build(seed)) — repeated runs
  /// (and the query service) share the built graph instead of
  /// regenerating it. Safe to call from sweep() workers.
  std::shared_ptr<const graph> topology(const std::string& name,
                                        std::uint64_t seed,
                                        node_id budget = 0) const;

 private:
  const experiment& exp_;
  const param_set& params_;
  int scale_;
  std::size_t threads_;
  bool use_spt_cache_;
  recorder& rec_;
};

}  // namespace mcast::lab
