// perfbench — the repository's benchmark program.
//
//   perfbench --workload <svc_read|svc_write|lab_affinity|lab_networks>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--reference FILE] [--trace-out FILE] [--work-dir DIR]
//             [--corrupt-reference]
//
// Prints notes and a machine record as `#` lines, then, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, derived from the spans the benchmark records around its
// calls into the program (written to --trace-out) and the obs registry.
// perfbench/run.py builds this binary and is the command to use.
#include <unistd.h>

#include <csignal>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lab.hpp"
#include "svc.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::metric;

/// Every metric perfbench reports, with its unit. Workloads a per-layer
/// metric does not apply to report it as 0.
const std::vector<metric> k_end_to_end = {
    {"setup_s", 0, "s"},        {"wall_s", 0, "s"},
    {"capacity_rps", 0, "1/s"}, {"p50_ms_r50", 0, "ms"},
    {"peak_rss_mb", 0, "MB"},
};

/// The tail latencies are measured in every run but carry no bound: on a
/// shared 4-vCPU host their run-to-run spread exceeds any bound the
/// benchmark may set (README.md, "Why the tails carry no bound").
const std::vector<metric> k_per_layer = {
    {"p99_ms_r50", 0, "ms"},
    {"p99_ms_r80", 0, "ms"},
    {"net.queue_wait_us.mean", 0, "us"},
    {"net.write_us.mean", 0, "us"},
    {"net.outside_handler_us.p50", 0, "us"},
    {"net.busy_frac", 0, "ratio"},
    {"net.rejected", 0, "count"},
    {"service.parse_us.p50", 0, "us"},
    {"service.handle_us.lmhat.p50", 0, "us"},
    {"service.handle_us.lmhat.p99", 0, "us"},
    {"service.handle_us.reachability.p50", 0, "us"},
    {"service.handle_us.reachability.p99", 0, "us"},
    {"service.handle_us.lm_estimate.p50", 0, "us"},
    {"service.handle_us.lm_estimate.p99", 0, "us"},
    {"service.handle_us.group.p50", 0, "us"},
    {"service.handle_us.group.p99", 0, "us"},
    {"service.serialize_us.mean", 0, "us"},
    {"service.errors", 0, "count"},
    {"service.shed", 0, "count"},
    {"obs.access_log_records", 0, "count"},
    {"obs.access_log_overhead_frac", 0, "ratio"},
    {"topo.build_ms", 0, "ms"},
    {"topo.cache_hits", 0, "count"},
    {"topo.cache_misses", 0, "count"},
    {"graph.bfs_us.p50", 0, "us"},
    {"graph.all_pairs_ms", 0, "ms"},
    {"graph.workspace_reuse_ratio", 0, "ratio"},
    {"multicast.affinity_move_us", 0, "us"},
    {"multicast.spt_cache_hit_ratio", 0, "ratio"},
    {"multicast.delivery_tree_us.p50", 0, "us"},
    {"core.mc_sample_us", 0, "us"},
    {"lab.sched_busy_frac", 0, "ratio"},
    {"lab.cpu_s", 0, "s"},
    {"lab.splice_wait_ms", 0, "ms"},
    {"lab.experiment_wall_s.table1", 0, "s"},
    {"lab.experiment_wall_s.fig1", 0, "s"},
    {"group.join_us.p50", 0, "us"},
    {"group.leave_us.p50", 0, "us"},
    {"group.links_per_join", 0, "count"},
    {"bench.gen_late_ms.p99", 0, "ms"},
    {"bench.backlog_end", 0, "count"},
    {"bench.client_cpu_frac", 0, "ratio"},
    {"bench.trace_overhead_frac", 0, "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--reference FILE] [--trace-out FILE] [--work-dir DIR]"
               " [--corrupt-reference]\n";
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // The access log writes into a pipe; a write after its reader closed
  // must fail, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--ready") {
    // The set-up probe (see run_service / run_lab): one set-up, reported
    // ready to the parent (signal_ready), then teardown and exit.
    if (args.size() == 2) return perfbench::lab_ready(args[1]);
    if (args.size() == 4 && args[2] == "--work-dir") {
      if (args[1] == "svc_read") return perfbench::service_ready(perfbench::k_svc_read, args[3]);
      if (args[1] == "svc_write") return perfbench::service_ready(perfbench::k_svc_write, args[3]);
    }
    return 2;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= args.size()) usage("missing value for " + a);
    const std::string& v = args[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--reference") {
        opt.reference_path = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  perfbench::span_log spans;
  spans.enable(opt.trace);
  perfbench::result res;
  try {
    if (opt.workload == "svc_read") {
      res = perfbench::run_service(opt, perfbench::k_svc_read, spans);
    } else if (opt.workload == "svc_write") {
      res = perfbench::run_service(opt, perfbench::k_svc_write, spans);
    } else if (opt.workload == "lab_affinity") {
      res = perfbench::run_lab(opt, perfbench::lab_affinity_profile(), spans);
    } else if (opt.workload == "lab_networks") {
      res = perfbench::run_lab(opt, perfbench::lab_networks_profile(opt.seed), spans);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  res.fact("workload", opt.workload);
  res.fact("seed", static_cast<double>(opt.seed));
  res.fact("default_seed", static_cast<double>(perfbench::k_default_seed));
  res.fact("held_out_seed", static_cast<double>(perfbench::k_held_out_seed));
  res.fact("seconds", opt.seconds);
  res.fact("trace", opt.trace ? 1.0 : 0.0);
  res.fact("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  res.fact("cpu_model", cpu_model());
  res.fact("build_type", PERFBENCH_BUILD_TYPE);
  res.fact("git_revision", env_or("PERFBENCH_REVISION", "unknown"));
  res.fact("source_digest", env_or("PERFBENCH_SOURCE_DIGEST", "unknown"));
  res.fact("failed_frac",
           res.attempted > 0 ? static_cast<double>(res.failed) /
                                   static_cast<double>(res.attempted)
                             : 1.0);
  if (res.failed > 0) res.correct = false;

  if (opt.trace && !opt.trace_out.empty()) {
    if (!spans.write(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
    }
    std::cout << "# trace: " << spans.size() << " spans in " << opt.trace_out << "\n";
    std::size_t shown = 0;
    for (const auto& row : spans.self_times()) {
      if (shown++ == 12) break;
      std::printf("# self %-40s n=%-8zu total_ms=%-12.3f self_ms=%.3f\n",
                  row.name.c_str(), row.count, row.total_ms, row.self_ms);
    }
  }
  for (const std::string& note : res.notes) std::cout << "# " << note << "\n";
  std::string record = "{";
  for (const auto& [k, v] : res.record) {
    record += (record.size() > 1 ? "," : "") + perfbench::quote(k) + ":" + v;
  }
  std::cout << "# record " << record << "}\n";

  // The reported set: exactly the end-to-end or the per-layer metrics.
  // Whatever else the run measured is printed as a `# also` line.
  const std::vector<metric>& wanted = opt.trace ? k_per_layer : k_end_to_end;
  const auto value_of = [&](const std::string& name) {
    for (const metric& m : res.metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  for (const metric& m : res.metrics) {
    bool listed = false;
    for (const metric& w : wanted) listed = listed || w.name == m.name;
    if (!listed) {
      std::printf("# also %-33s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string metrics;
  for (const metric& w : wanted) {
    const double value = value_of(w.name);
    std::printf("# %-38s %16.6g %s\n", w.name.c_str(), value, w.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + perfbench::quote(w.name) +
               ": {\"value\": " + perfbench::num(value) +
               ", \"unit\": " + perfbench::quote(w.unit) + "}";
  }
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return res.correct ? 0 : 1;
}
