// svc_load — open-loop load generator for the mcast_serve query service.
//
// Default mode spins the server *in-process* (same obs registry), so the
// BENCH_service.json manifest captures server-side truth: accepted and
// rejected connection counts, queue-depth/inflight peaks, request and
// queue-wait latency histograms, topology-cache hits. `--port=N` targets
// an external server instead (client-side numbers only).
//
// Three phases:
//   1. warmup      — a short burst, excluded from every number;
//   2. measured    — C connections, each sending R requests on an
//                    open-loop schedule (sends fire at sleep_until
//                    instants regardless of response progress, the
//                    standard way to avoid coordinated omission) while a
//                    reader thread timestamps in-order responses;
//   3. overload    — (in-process only) a deliberately tiny server
//                    (workers=1, queue=1) is held busy and burst-
//                    connected, counting typed `overloaded` rejections —
//                    the admission-control path exercised on purpose.
//
// In-process runs repeat the measured phase once more with the JSONL
// access log on (its QPS cost is reported). `--access-log=FILE` keeps that
// log at FILE instead of <out>/access_svc_load.jsonl, and
// `--profile=FILE` traces the same phase into a Chrome trace, so spans and
// access records join on trace id (`mcast_lab trace`).
//
// Output: human summary on stdout + BENCH_service.json (schema
// mcast-lab-manifest/2, `mcast_lab validate`-clean) with QPS and exact
// p50/p95/p99 latencies in the fits section.
//
// Exit codes: 0 ok; 1 bad arguments or a failed run contract (lost
// responses, chaos goodput or shed contract); 2 the output directory or an
// artifact cannot be written (checked before any load runs).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "lab/manifest.hpp"
#include "lab/params.hpp"
#include "net/chaos.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"
#include "topo/cache.hpp"

namespace {

using mcast::net::chaos_engine;
using mcast::net::chaos_spec;
using mcast::net::connect_loopback;
using mcast::net::line_reader;
using mcast::net::line_server;
using mcast::net::send_all;
using mcast::net::server_config;
using mcast::net::unique_fd;
using mcast::service::call_result;
using mcast::service::call_status;
using mcast::service::error_code;
using mcast::service::error_response;
using mcast::service::query_service;
using mcast::service::retry_client;
using mcast::service::retry_policy;
using mcast::service::shed_policy;

using clock_type = std::chrono::steady_clock;

struct options {
  std::size_t connections = 16;
  std::size_t requests = 200;     // per connection, measured phase
  double rate = 100.0;            // requests/second per connection (0 = flood)
  std::size_t workers = 4;        // in-process server threads
  std::size_t queue = 64;         // in-process server queue capacity
  std::uint64_t seed = 1;
  std::uint16_t port = 0;         // 0 = in-process server
  std::string out_dir = ".";
  bool overload_probe = true;
  std::string chaos;              // chaos spec; non-empty switches modes
  double min_goodput_ratio = 0.7; // chaos mode failure threshold
  std::string access_log;         // access-log phase artifact ("" = default)
  std::string profile;            // Chrome trace of the access-log phase
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "svc_load: " << message << "\n";
  std::exit(1);
}

std::uint64_t parse_u64_flag(const std::string& text, const char* flag) {
  if (text.empty()) die(std::string(flag) + " needs a value");
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      die(std::string(flag) + " expects an integer, got '" + text + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

options parse_options(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size() + 1);
    };
    if (arg.rfind("--connections=", 0) == 0) {
      opt.connections = parse_u64_flag(value_of("--connections"), "--connections");
      if (opt.connections == 0 || opt.connections > 512) {
        die("--connections must be in 1..512");
      }
    } else if (arg.rfind("--requests=", 0) == 0) {
      opt.requests = parse_u64_flag(value_of("--requests"), "--requests");
      if (opt.requests == 0) die("--requests must be >= 1");
    } else if (arg.rfind("--rate=", 0) == 0) {
      opt.rate = static_cast<double>(
          parse_u64_flag(value_of("--rate"), "--rate"));
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers = parse_u64_flag(value_of("--workers"), "--workers");
      if (opt.workers == 0) die("--workers must be >= 1");
    } else if (arg.rfind("--queue=", 0) == 0) {
      opt.queue = parse_u64_flag(value_of("--queue"), "--queue");
      if (opt.queue == 0) die("--queue must be >= 1");
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = parse_u64_flag(value_of("--seed"), "--seed");
    } else if (arg.rfind("--port=", 0) == 0) {
      const std::uint64_t p = parse_u64_flag(value_of("--port"), "--port");
      if (p == 0 || p > 65535) die("--port must be in 1..65535");
      opt.port = static_cast<std::uint16_t>(p);
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_dir = value_of("--out");
      if (opt.out_dir.empty()) die("--out= needs a directory");
    } else if (arg == "--skip-overload-probe") {
      opt.overload_probe = false;
    } else if (arg.rfind("--chaos=", 0) == 0) {
      opt.chaos = value_of("--chaos");
      if (opt.chaos.empty()) die("--chaos= needs a spec (try --chaos=default)");
    } else if (arg.rfind("--access-log=", 0) == 0) {
      opt.access_log = value_of("--access-log");
      if (opt.access_log.empty()) die("--access-log= needs a file path");
    } else if (arg.rfind("--profile=", 0) == 0) {
      opt.profile = value_of("--profile");
      if (opt.profile.empty()) die("--profile= needs a file path");
    } else if (arg.rfind("--min-goodput-ratio=", 0) == 0) {
      const std::string text = value_of("--min-goodput-ratio");
      std::size_t used = 0;
      double v = 0.0;
      try {
        v = std::stod(text, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != text.size() || !(v >= 0.0 && v <= 1.0)) {
        die("--min-goodput-ratio expects a fraction in [0,1]");
      }
      opt.min_goodput_ratio = v;
    } else {
      die("unknown argument '" + arg + "'");
    }
  }
  return opt;
}

/// Deterministic request mix: cheap closed-form and profile lookups with a
/// sprinkle of small Monte-Carlo runs, all seeded from (connection, index).
std::string make_request(std::uint64_t seed, std::size_t conn, std::size_t i) {
  const std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + conn * 131 + i;
  switch (i % 8) {
    case 3:
      return "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":"
             "[2,4,8],\"sources\":3,\"receiver_sets\":2,\"seed\":" +
             std::to_string(h % 1000) + "}";
    case 6:
      return "{\"op\":\"healthz\"}";
    case 1:
    case 5:
      return "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":" +
             std::to_string(h % 40) + "}";
    default:
      return "{\"op\":\"lmhat\",\"k\":" + std::to_string(2 + h % 6) +
             ",\"depth\":" + std::to_string(3 + h % 4) + ",\"n\":[1,10,100]}";
  }
}

/// Which latency bucket request i of the deterministic mix lands in
/// (mirrors make_request's switch). healthz pings are pooled-only.
enum class op_bucket { lmhat = 0, estimate = 1, reachability = 2, other = 3 };

op_bucket bucket_of(std::size_t i) {
  switch (i % 8) {
    case 3: return op_bucket::estimate;
    case 6: return op_bucket::other;
    case 1:
    case 5: return op_bucket::reachability;
    default: return op_bucket::lmhat;
  }
}

struct phase_result {
  std::vector<double> latencies_ms;  // one per completed request
  std::vector<double> by_op_ms[3];   // lmhat / estimate / reachability splits
  std::uint64_t errors = 0;          // ok:false responses
  std::uint64_t lost = 0;            // requests without a response
  double wall_seconds = 0.0;
};

struct op_percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};

/// One connection's open-loop run: the writer fires requests at scheduled
/// instants (never waiting for responses); the reader timestamps each
/// in-order response against its send time.
void run_connection(std::uint16_t port, const options& opt, std::size_t conn,
                    phase_result& out) {
  unique_fd fd = connect_loopback(port);
  std::vector<clock_type::time_point> sent(opt.requests);
  const auto interval =
      opt.rate > 0.0 ? std::chrono::duration_cast<clock_type::duration>(
                           std::chrono::duration<double>(1.0 / opt.rate))
                     : clock_type::duration::zero();

  std::thread writer([&] {
    const auto start = clock_type::now();
    for (std::size_t i = 0; i < opt.requests; ++i) {
      if (interval.count() > 0) {
        std::this_thread::sleep_until(start + interval * static_cast<long>(i));
      }
      const std::string line = make_request(opt.seed, conn, i) + "\n";
      sent[i] = clock_type::now();
      if (!send_all(fd.get(), line)) return;
    }
  });

  line_reader reader(fd.get(), 1 << 22);
  std::string line;
  for (std::size_t i = 0; i < opt.requests; ++i) {
    const line_reader::status st = reader.read_line(line, 60000);
    if (st != line_reader::status::line) {
      out.lost += opt.requests - i;
      break;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - sent[i])
            .count();
    out.latencies_ms.push_back(ms);
    const op_bucket bucket = bucket_of(i);
    if (bucket != op_bucket::other) {
      out.by_op_ms[static_cast<std::size_t>(bucket)].push_back(ms);
    }
    if (line.find("\"ok\":true") == std::string::npos) ++out.errors;
  }
  writer.join();
}

phase_result run_phase(std::uint16_t port, const options& opt) {
  phase_result total;
  std::vector<phase_result> per_conn(opt.connections);
  const auto begin = clock_type::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (std::size_t c = 0; c < opt.connections; ++c) {
      threads.emplace_back(
          [&, c] { run_connection(port, opt, c, per_conn[c]); });
    }
    for (std::thread& t : threads) t.join();
  }
  total.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - begin).count();
  for (const phase_result& r : per_conn) {
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
    for (std::size_t b = 0; b < 3; ++b) {
      total.by_op_ms[b].insert(total.by_op_ms[b].end(), r.by_op_ms[b].begin(),
                               r.by_op_ms[b].end());
    }
    total.errors += r.errors;
    total.lost += r.lost;
  }
  return total;
}

/// Exact percentile over the sorted sample (nearest-rank).
double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

op_percentiles summarize(std::vector<double>& sample) {
  std::sort(sample.begin(), sample.end());
  op_percentiles out;
  out.p50 = percentile(sample, 0.50);
  out.p95 = percentile(sample, 0.95);
  out.p99 = percentile(sample, 0.99);
  out.count = sample.size();
  return out;
}

/// Adds the lmhat/estimate/reachability splits to a fit's value list and
/// prints the one-line breakdown.
void report_op_breakdown(phase_result& measured, mcast::lab::fit_entry& fit) {
  static const char* const names[3] = {"lmhat", "estimate", "reachability"};
  for (std::size_t b = 0; b < 3; ++b) {
    const op_percentiles ps = summarize(measured.by_op_ms[b]);
    std::printf("  %-12s p50=%.3f p95=%.3f p99=%.3f ms (%zu samples)\n",
                names[b], ps.p50, ps.p95, ps.p99, ps.count);
    const std::string prefix = names[b];
    fit.values.push_back({prefix + "_p50_ms", ps.p50});
    fit.values.push_back({prefix + "_p95_ms", ps.p95});
    fit.values.push_back({prefix + "_p99_ms", ps.p99});
  }
}

server_config typed_config(std::size_t workers, std::size_t queue) {
  server_config config;
  config.port = 0;
  config.workers = workers;
  config.queue_capacity = queue;
  config.overload_response =
      error_response(error_code::overloaded, "connection queue full");
  config.overlong_response =
      error_response(error_code::bad_request, "request line too long");
  config.internal_error_response =
      error_response(error_code::internal_error, "handler failed");
  return config;
}

/// Holds a workers=1/queue=1 server busy with a slow Monte-Carlo request
/// and burst-connects it; returns how many typed `overloaded` rejections
/// the burst collected (the admission-control rate under saturation).
std::uint64_t overload_probe(std::uint64_t seed) {
  query_service svc;
  line_server tiny(typed_config(1, 1), [&svc](const std::string& line) {
    return svc.handle(line);
  });

  // Occupy the single worker with a deliberately heavy request.
  unique_fd busy = connect_loopback(tiny.port());
  const std::string slow =
      "{\"op\":\"lm_estimate\",\"topology\":\"ts1000\",\"budget\":300,"
      "\"grid_points\":12,\"sources\":48,\"receiver_sets\":24,\"seed\":" +
      std::to_string(seed) + "}";
  if (!send_all(busy.get(), slow + "\n")) return 0;
  // Give the worker time to pick it up, then park one more connection in
  // the single queue slot so the burst below faces a full house.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  unique_fd parked = connect_loopback(tiny.port());

  std::uint64_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      unique_fd probe = connect_loopback(tiny.port());
      line_reader reader(probe.get(), 1 << 16);
      std::string line;
      if (reader.read_line(line, 2000) == line_reader::status::line &&
          line.find("overloaded") != std::string::npos) {
        ++rejected;
      }
    } catch (const std::exception&) {
      // Connect refusal also counts as load shed, just not typed.
    }
  }

  // Drain the slow request so shutdown is clean.
  line_reader busy_reader(busy.get(), 1 << 24);
  std::string line;
  (void)busy_reader.read_line(line, 120000);
  tiny.shutdown();
  tiny.wait();
  return rejected;
}

// --- chaos mode --------------------------------------------------------
//
// `--chaos=SPEC` switches svc_load from the open-loop latency harness to
// a closed-loop resilience harness: the same request mix is driven
// through retry clients (service/client.hpp) against an in-process
// server twice — once fault-free (the goodput baseline) and once with
// the chaos shim armed — and the manifest reports goodput under faults
// as a fraction of the fault-free rate, plus tail latency measured
// *through* the retries. A response surviving on any connection must
// parse as JSON: a malformed line is a failure of the chaos contract
// (truncation must kill its connection), not a statistic.

struct closed_loop_result {
  std::vector<double> latencies_ms;  // per successful call, retries included
  std::uint64_t successes = 0;
  std::uint64_t server_errors = 0;     // typed non-retryable error lines
  std::uint64_t transport_failures = 0;  // retries exhausted
  std::uint64_t attempts = 0;
  std::uint64_t malformed = 0;  // surviving lines that do not parse
  double wall_seconds = 0.0;
};

closed_loop_result run_closed_loop(std::uint16_t port, const options& opt) {
  closed_loop_result total;
  std::vector<closed_loop_result> per_conn(opt.connections);
  const auto begin = clock_type::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (std::size_t c = 0; c < opt.connections; ++c) {
      threads.emplace_back([&, c] {
        closed_loop_result& out = per_conn[c];
        retry_policy policy;
        policy.max_attempts = 6;
        policy.attempt_timeout_ms = 30000;
        policy.backoff_base_ms = 1;
        policy.backoff_max_ms = 20;
        policy.seed = opt.seed * 1000003 + c;  // per-client jitter stream
        retry_client client(port, policy);
        // Paced closed loop: requests are *offered* at --rate per second
        // (never early; late calls run back-to-back), so goodput compares
        // what fraction of the same offered load survives each phase
        // rather than penalizing injected latency twice. --rate=0 floods.
        const auto interval =
            opt.rate > 0.0 ? std::chrono::duration_cast<clock_type::duration>(
                                 std::chrono::duration<double>(1.0 / opt.rate))
                           : clock_type::duration::zero();
        const auto start = clock_type::now();
        for (std::size_t i = 0; i < opt.requests; ++i) {
          if (interval.count() > 0) {
            std::this_thread::sleep_until(start +
                                          interval * static_cast<long>(i));
          }
          const auto sent = clock_type::now();
          const call_result result = client.call(make_request(opt.seed, c, i));
          out.attempts += static_cast<std::uint64_t>(result.attempts);
          if (!result.response.empty()) {
            try {
              (void)mcast::json::parse(result.response);
            } catch (const std::exception&) {
              ++out.malformed;
            }
          }
          switch (result.status) {
            case call_status::ok:
              ++out.successes;
              out.latencies_ms.push_back(
                  std::chrono::duration<double, std::milli>(clock_type::now() -
                                                            sent)
                      .count());
              break;
            case call_status::server_error:
              ++out.server_errors;
              break;
            default:
              ++out.transport_failures;
              break;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  total.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - begin).count();
  for (const closed_loop_result& r : per_conn) {
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
    total.successes += r.successes;
    total.server_errors += r.server_errors;
    total.transport_failures += r.transport_failures;
    total.attempts += r.attempts;
    total.malformed += r.malformed;
  }
  return total;
}

struct shed_probe_result {
  std::uint64_t degraded = 0;  ///< degraded answers observed (marked)
  std::uint64_t refused = 0;   ///< typed `shed` refusals observed
  bool contract_ok = true;     ///< markers present exactly when expected
};

/// Drives the shed policy deterministically through a direct
/// query_service with an injected pressure value: full answers below the
/// degrade threshold, marked Eq-4 answers between the tiers, typed `shed`
/// refusals above the refuse threshold.
shed_probe_result run_shed_probe() {
  query_service svc;
  double pressure = 0.0;
  svc.set_pressure_source([&pressure] { return pressure; });
  shed_policy policy;
  policy.degrade_at = 0.5;
  policy.refuse_at = 0.9;
  svc.set_shed_policy(policy);

  const std::string estimate =
      "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":[2,4,8],"
      "\"sources\":2,\"receiver_sets\":2,\"seed\":11}";
  shed_probe_result out;

  pressure = 0.0;
  if (svc.handle(estimate).find("\"degraded\"") != std::string::npos) {
    out.contract_ok = false;  // fault-free responses must stay unmarked
  }
  pressure = 0.7;
  for (int i = 0; i < 8; ++i) {
    const std::string response = svc.handle(estimate);
    if (response.find("\"ok\":true") != std::string::npos &&
        response.find("\"degraded\":true") != std::string::npos) {
      ++out.degraded;
    } else {
      out.contract_ok = false;
    }
  }
  pressure = 0.95;
  for (int i = 0; i < 4; ++i) {
    if (svc.handle(estimate).find("\"code\":\"shed\"") != std::string::npos) {
      ++out.refused;
    } else {
      out.contract_ok = false;
    }
  }
  // Cheap ops must stay live at any pressure.
  if (svc.handle("{\"op\":\"healthz\"}").find("\"ok\":true") ==
      std::string::npos) {
    out.contract_ok = false;
  }
  return out;
}

int chaos_main(const options& opt) {
  if (opt.port != 0) die("--chaos needs the in-process server (drop --port)");
  chaos_spec spec;
  try {
    spec = chaos_spec::parse(opt.chaos);
  } catch (const std::exception& e) {
    die(e.what());
  }

  mcast::obs::reset_metrics();
  const std::clock_t cpu_begin = std::clock();
  const auto wall_begin = clock_type::now();

  std::cerr << "svc_load: chaos mode (" << spec.describe()
            << ") connections=" << opt.connections
            << " requests=" << opt.requests << "\n";

  // Phase 1: fault-free baseline, same closed-loop retry-client workload.
  double baseline_qps = 0.0;
  {
    auto svc = std::make_shared<query_service>();
    line_server server(
        typed_config(opt.workers, opt.queue),
        [svc](const std::string& line) { return svc->handle(line); });
    svc->set_stats_source([&server] { return server.stats(); });
    const closed_loop_result baseline = run_closed_loop(server.port(), opt);
    server.shutdown();
    server.wait();
    baseline_qps = baseline.wall_seconds > 0.0
                       ? static_cast<double>(baseline.successes) /
                             baseline.wall_seconds
                       : 0.0;
    std::printf("svc_load chaos baseline\n");
    std::printf("  successes    %llu (%llu attempts)\n",
                static_cast<unsigned long long>(baseline.successes),
                static_cast<unsigned long long>(baseline.attempts));
    std::printf("  goodput      %.1f req/s fault-free\n", baseline_qps);
  }

  // Phase 2: the same workload with the chaos shim armed.
  mcast::net::server_stats chaos_stats;
  closed_loop_result faulted;
  {
    auto svc = std::make_shared<query_service>();
    server_config config = typed_config(opt.workers, opt.queue);
    config.chaos = std::make_shared<const chaos_engine>(spec);
    line_server server(
        config, [svc](const std::string& line) { return svc->handle(line); });
    svc->set_stats_source([&server] { return server.stats(); });
    faulted = run_closed_loop(server.port(), opt);
    chaos_stats = server.stats();
    server.shutdown();
    server.wait();
  }

  const std::uint64_t expected =
      static_cast<std::uint64_t>(opt.connections) * opt.requests;
  const double goodput = faulted.wall_seconds > 0.0
                             ? static_cast<double>(faulted.successes) /
                                   faulted.wall_seconds
                             : 0.0;
  const double ratio = baseline_qps > 0.0 ? goodput / baseline_qps : 0.0;
  std::sort(faulted.latencies_ms.begin(), faulted.latencies_ms.end());
  const double p50 = percentile(faulted.latencies_ms, 0.50);
  const double p99 = percentile(faulted.latencies_ms, 0.99);

  // Phase 3: deterministic shed-tier probe (no sockets involved).
  const shed_probe_result shed = run_shed_probe();

  std::printf("svc_load chaos results\n");
  std::printf("  successes    %llu / %llu (%llu typed errors, %llu failed)\n",
              static_cast<unsigned long long>(faulted.successes),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(faulted.server_errors),
              static_cast<unsigned long long>(faulted.transport_failures));
  std::printf("  attempts     %llu (faults injected: %llu)\n",
              static_cast<unsigned long long>(faulted.attempts),
              static_cast<unsigned long long>(chaos_stats.chaos_injected));
  std::printf("  goodput      %.1f req/s (%.1f%% of fault-free)\n", goodput,
              100.0 * ratio);
  std::printf("  latency ms   p50=%.3f p99=%.3f (through retries)\n", p50,
              p99);
  std::printf("  shed probe   %llu degraded, %llu refused, contract %s\n",
              static_cast<unsigned long long>(shed.degraded),
              static_cast<unsigned long long>(shed.refused),
              shed.contract_ok ? "ok" : "VIOLATED");
  if (faulted.malformed > 0) {
    std::printf("  MALFORMED    %llu surviving non-JSON lines\n",
                static_cast<unsigned long long>(faulted.malformed));
  }

  namespace lab = mcast::lab;
  lab::run_record record;
  record.experiment_id = "svc_chaos";
  record.title = "Service chaos: goodput and tails under fault injection";
  record.claim =
      "closed-loop goodput, retry pressure and p99-through-retries of "
      "mcast_serve under deterministic seeded fault injection, plus the "
      "cost-aware shedding tiers exercised deterministically";
  record.scale = lab::scale_from_env();
  record.threads = opt.workers;
  record.parameters.set("connections",
                        static_cast<std::uint64_t>(opt.connections));
  record.parameters.set("requests", static_cast<std::uint64_t>(opt.requests));
  record.parameters.set("workers", static_cast<std::uint64_t>(opt.workers));
  record.parameters.set("queue", static_cast<std::uint64_t>(opt.queue));
  record.parameters.set("seed", opt.seed);
  record.parameters.set("chaos", spec.describe());
  record.parameters.set("min_goodput_ratio", opt.min_goodput_ratio);
  record.git_revision = lab::current_git_revision();
  record.timestamp_utc = lab::utc_timestamp();
  record.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - wall_begin).count();
  record.cpu_seconds = static_cast<double>(std::clock() - cpu_begin) /
                       static_cast<double>(CLOCKS_PER_SEC);
  lab::fit_entry fit;
  fit.label = "SvcChaos";
  {
    char text[320];
    std::snprintf(text, sizeof text,
                  "goodput_qps=%.1f baseline_qps=%.1f goodput_ratio=%.3f "
                  "p50_ms=%.3f p99_ms=%.3f attempts=%llu faults=%llu "
                  "shed_degraded=%llu shed_refused=%llu",
                  goodput, baseline_qps, ratio, p50, p99,
                  static_cast<unsigned long long>(faulted.attempts),
                  static_cast<unsigned long long>(chaos_stats.chaos_injected),
                  static_cast<unsigned long long>(shed.degraded),
                  static_cast<unsigned long long>(shed.refused));
    fit.text = text;
  }
  fit.values = {
      {"goodput_qps", goodput},
      {"baseline_qps", baseline_qps},
      {"goodput_ratio", ratio},
      {"p50_ms", p50},
      {"p99_ms", p99},
      {"successes", static_cast<double>(faulted.successes)},
      {"server_errors", static_cast<double>(faulted.server_errors)},
      {"transport_failures", static_cast<double>(faulted.transport_failures)},
      {"attempts", static_cast<double>(faulted.attempts)},
      {"faults_injected", static_cast<double>(chaos_stats.chaos_injected)},
      {"deadline_closes", static_cast<double>(chaos_stats.deadline_closes)},
      {"shed_degraded", static_cast<double>(shed.degraded)},
      {"shed_refused", static_cast<double>(shed.refused)},
      {"malformed", static_cast<double>(faulted.malformed)},
  };
  record.fits.push_back(std::move(fit));
  record.metric_groups = {"service", "retry", "topo_cache"};
  record.metrics = mcast::obs::snapshot();

  const std::string path = opt.out_dir + "/BENCH_service_chaos.json";
  lab::write_manifest(record, path);
  std::cerr << "svc_load: manifest " << path << "\n";

  if (faulted.malformed > 0) {
    std::cerr << "svc_load: FAIL: malformed line on a surviving connection\n";
    return 1;
  }
  if (!shed.contract_ok) {
    std::cerr << "svc_load: FAIL: shed probe contract violated\n";
    return 1;
  }
  if (ratio < opt.min_goodput_ratio) {
    std::cerr << "svc_load: FAIL: goodput ratio " << ratio << " below "
              << opt.min_goodput_ratio << "\n";
    return 1;
  }
  return 0;
}

int load_main(const options& opt) {
  mcast::obs::reset_metrics();
  const std::clock_t cpu_begin = std::clock();
  const auto wall_begin = clock_type::now();

  // In-process server unless --port points at an external one.
  std::shared_ptr<query_service> svc;
  std::unique_ptr<line_server> server;
  std::uint16_t port = opt.port;
  if (port == 0) {
    svc = std::make_shared<query_service>();
    server = std::make_unique<line_server>(
        typed_config(opt.workers, opt.queue),
        [svc](const std::string& line) { return svc->handle(line); });
    svc->set_stats_source([&s = *server] { return s.stats(); });
    port = server->port();
  }
  std::cerr << "svc_load: target 127.0.0.1:" << port
            << (server ? " (in-process)" : " (external)") << " connections="
            << opt.connections << " requests=" << opt.requests
            << " rate=" << opt.rate << "/s\n";

  // Warmup: populate the topology cache and spin up the worker threads.
  {
    options warm = opt;
    warm.connections = std::min<std::size_t>(opt.connections, 4);
    warm.requests = 16;
    warm.rate = 0.0;
    (void)run_phase(port, warm);
  }

  phase_result measured = run_phase(port, opt);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(opt.connections) * opt.requests;
  const double qps =
      measured.wall_seconds > 0.0
          ? static_cast<double>(measured.latencies_ms.size()) /
                measured.wall_seconds
          : 0.0;
  std::sort(measured.latencies_ms.begin(), measured.latencies_ms.end());
  const double p50 = percentile(measured.latencies_ms, 0.50);
  const double p95 = percentile(measured.latencies_ms, 0.95);
  const double p99 = percentile(measured.latencies_ms, 0.99);

  // Latency attribution: the registry's svc.request_ns histogram times
  // the handler alone, the client-observed p99 adds queue wait and the
  // wire. The delta localizes a tail regression to one side. The bucket
  // quantile over-estimates by up to 2x, so a small negative delta just
  // means the two sides agree to within bucket granularity.
  double server_p99_ms = 0.0;
  double p99_delta_ms = 0.0;
  if (server) {
    server_p99_ms =
        mcast::obs::snapshot().at(mcast::obs::histogram::svc_request_ns).p99 /
        1e6;
    p99_delta_ms = p99 - server_p99_ms;
  }

  // Access-log overhead pair: the identical measured phase re-run with
  // the JSONL sink armed (and the span tracer, under --profile). The open
  // loop is rate-paced, so this measures the log's cost at the offered
  // rate, not at saturation.
  double qps_logged = 0.0;
  double accesslog_overhead = 0.0;
  if (server) {
    const std::string log_path = opt.access_log.empty()
                                     ? opt.out_dir + "/access_svc_load.jsonl"
                                     : opt.access_log;
    if (!opt.profile.empty()) {
      mcast::obs::trace_clear();
      mcast::obs::trace_enable();
    }
    mcast::obs::access_log_enable(log_path);
    phase_result logged = run_phase(port, opt);
    mcast::obs::access_log_disable();
    if (!opt.profile.empty()) mcast::obs::trace_disable();
    qps_logged = logged.wall_seconds > 0.0
                     ? static_cast<double>(logged.latencies_ms.size()) /
                           logged.wall_seconds
                     : 0.0;
    accesslog_overhead =
        qps > 0.0 ? std::max(0.0, (qps - qps_logged) / qps) : 0.0;
  }

  std::uint64_t overload_rejections = 0;
  if (server && opt.overload_probe) {
    overload_rejections = overload_probe(opt.seed);
  }

  if (server) {
    server->shutdown();
    server->wait();
  }

  std::printf("svc_load results\n");
  std::printf("  requests     %llu / %llu answered (%llu error, %llu lost)\n",
              static_cast<unsigned long long>(measured.latencies_ms.size()),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(measured.errors),
              static_cast<unsigned long long>(measured.lost));
  std::printf("  wall         %.3f s\n", measured.wall_seconds);
  std::printf("  throughput   %.1f req/s\n", qps);
  std::printf("  latency ms   p50=%.3f p95=%.3f p99=%.3f\n", p50, p95, p99);
  if (server) {
    std::printf("  server p99   %.3f ms (client-server delta %+.3f ms)\n",
                server_p99_ms, p99_delta_ms);
    std::printf("  access log   %.1f req/s logged (overhead %.2f%%)\n",
                qps_logged, 100.0 * accesslog_overhead);
  }
  if (server && opt.overload_probe) {
    std::printf("  overload     %llu typed rejections under saturation\n",
                static_cast<unsigned long long>(overload_rejections));
  }

  // Manifest, shaped exactly like a lab run so `mcast_lab validate` and
  // the perf-trajectory tooling ingest it unchanged.
  namespace lab = mcast::lab;
  lab::run_record record;
  record.experiment_id = "svc_load";
  record.title = "Service load: QPS and tail latency of mcast_serve";
  record.claim =
      "open-loop throughput, exact p50/p95/p99 latency, and typed "
      "admission-control rejections of the line-JSON query service";
  record.scale = lab::scale_from_env();
  record.threads = opt.workers;
  record.parameters.set("connections",
                        static_cast<std::uint64_t>(opt.connections));
  record.parameters.set("requests", static_cast<std::uint64_t>(opt.requests));
  record.parameters.set("rate", opt.rate);
  record.parameters.set("workers", static_cast<std::uint64_t>(opt.workers));
  record.parameters.set("queue", static_cast<std::uint64_t>(opt.queue));
  record.parameters.set("seed", opt.seed);
  record.parameters.set("external_port", static_cast<std::uint64_t>(opt.port));
  record.git_revision = lab::current_git_revision();
  record.timestamp_utc = lab::utc_timestamp();
  record.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - wall_begin).count();
  record.cpu_seconds = static_cast<double>(std::clock() - cpu_begin) /
                       static_cast<double>(CLOCKS_PER_SEC);
  lab::fit_entry fit;
  fit.label = "SvcLoad";
  {
    char text[256];
    std::snprintf(text, sizeof text,
                  "qps=%.1f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f "
                  "errors=%llu lost=%llu overload_rejections=%llu",
                  qps, p50, p95, p99,
                  static_cast<unsigned long long>(measured.errors),
                  static_cast<unsigned long long>(measured.lost),
                  static_cast<unsigned long long>(overload_rejections));
    fit.text = text;
  }
  fit.values = {
      {"qps", qps},
      {"p50_ms", p50},
      {"p95_ms", p95},
      {"p99_ms", p99},
      {"server_p99_ms", server_p99_ms},
      {"p99_delta_ms", p99_delta_ms},
      {"qps_accesslog", qps_logged},
      {"accesslog_overhead_frac", accesslog_overhead},
      {"answered", static_cast<double>(measured.latencies_ms.size())},
      {"errors", static_cast<double>(measured.errors)},
      {"lost", static_cast<double>(measured.lost)},
      {"overload_rejections", static_cast<double>(overload_rejections)},
  };
  report_op_breakdown(measured, fit);
  record.fits.push_back(std::move(fit));
  record.metric_groups = {"service", "topo_cache"};
  record.metrics = mcast::obs::snapshot();

  const std::string path = opt.out_dir + "/BENCH_service.json";
  lab::write_manifest(record, path);
  std::cerr << "svc_load: manifest " << path << "\n";
  if (server && !opt.profile.empty()) {
    const mcast::obs::trace_dump dump = mcast::obs::trace_collect();
    mcast::obs::write_chrome_trace_file(opt.profile, dump);
    std::cerr << "svc_load: trace " << opt.profile << " ("
              << dump.events.size() << " events, " << dump.dropped
              << " dropped)\n";
  }

  // Lost responses mean dropped connections mid-phase — that is a failure
  // of the zero-drop contract, not a statistic.
  return measured.lost == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_options(argc, argv);
  try {
    if (!std::filesystem::is_directory(opt.out_dir)) {
      throw std::runtime_error("--out=" + opt.out_dir +
                               " is not an existing directory");
    }
    return opt.chaos.empty() ? load_main(opt) : chaos_main(opt);
  } catch (const std::exception& e) {
    std::cerr << "svc_load: " << e.what() << "\n";
    return 2;
  }
}
