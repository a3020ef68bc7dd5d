// svc_load — load generator for the mcast_serve query service.
//
// Default mode spins the server *in-process* (same obs registry), so the
// manifest captures server-side truth: accepted and rejected connection
// counts, queue-depth/inflight peaks, request and queue-wait latency
// histograms, topology-cache hits. `--port=N` targets an external server
// instead (client-side numbers only).
//
// One driver, two lists of phases. A load phase opens C connections at
// once, each on its own thread, and sends R requests of one deterministic
// mix on one pacing schedule: request i goes out no earlier than
// start + i/rate (`--rate=0` sends back to back).
//
// Open loop (default) writes BENCH_service.json, fit SvcLoad:
//   1. warmup     — a short burst, excluded from every number;
//   2. measured   — sends fire at their scheduled instants regardless of
//                   response progress (the standard way to avoid
//                   coordinated omission) while a reader thread
//                   timestamps the in-order responses;
//   3. access-log — (in-process only) the measured phase again with the
//                   JSONL access log on; its QPS cost is reported.
//                   `--access-log=FILE` keeps that log at FILE instead of
//                   <out>/access_svc_load.jsonl, and `--profile=FILE`
//                   traces the same phase into a Chrome trace, so spans
//                   and access records join on trace id (`mcast_lab
//                   trace`);
//   4. overload   — (in-process only) a deliberately tiny server
//                   (workers=1, queue=1) is held busy and burst-connected,
//                   counting typed `overloaded` rejections — the
//                   admission-control path exercised on purpose.
//
// Closed loop (`--chaos=SPEC`) writes BENCH_service_chaos.json, fit
// SvcChaos. The same mix runs through retry clients (service/client.hpp):
//   1. baseline   — against a fault-free in-process server;
//   2. faulted    — against a fresh server with the chaos shim armed.
//                   Goodput is reported as a fraction of the baseline, and
//                   tail latency is measured *through* the retries. A
//                   response surviving on any connection must parse as
//                   JSON: a malformed line is a failure of the chaos
//                   contract (truncation must kill its connection), not a
//                   statistic;
//   3. shed probe — the cost-aware shedding tiers, driven
//                   deterministically through a direct query_service.
//
// Both manifests use schema mcast-lab-manifest/2 and are `mcast_lab
// validate`-clean.
//
// Exit codes: 0 ok; 1 bad arguments or a failed run contract (lost
// responses, chaos goodput or shed contract); 2 the output directory or an
// artifact cannot be written (checked before any load runs), or a phase
// fails outright (say, nothing listens on --port).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
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

namespace {

namespace lab = mcast::lab;
using mcast::net::chaos_engine;
using mcast::net::chaos_spec;
using mcast::net::connect_loopback;
using mcast::net::line_reader;
using mcast::net::line_server;
using mcast::net::send_all;
using mcast::net::server_config;
using mcast::net::server_stats;
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
  std::size_t requests = 200;     // per connection, per phase
  double rate = 100.0;            // requests/second per connection (0 = flood)
  std::size_t workers = 4;        // in-process server threads
  std::size_t queue = 64;         // in-process server queue capacity
  std::uint64_t seed = 1;
  std::uint16_t port = 0;         // 0 = in-process server
  std::string out_dir = ".";
  std::optional<chaos_spec> chaos;  // set: the closed-loop phases
  double min_goodput_ratio = 0.7; // chaos mode failure threshold
  std::string access_log;         // access-log phase artifact ("" = default)
  std::string profile;            // Chrome trace of the access-log phase
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "svc_load: " << message << "\n";
  std::exit(1);
}

options parse_options(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto u64 = [&] { return lab::parse_u64(value, flag); };
    try {
      if (flag == "--connections") {
        opt.connections = u64();
        if (opt.connections == 0 || opt.connections > 512) {
          die("--connections must be in 1..512");
        }
      } else if (flag == "--requests") {
        opt.requests = u64();
        if (opt.requests == 0) die("--requests must be >= 1");
      } else if (flag == "--rate") {
        opt.rate = static_cast<double>(u64());
      } else if (flag == "--workers") {
        opt.workers = u64();
        if (opt.workers == 0) die("--workers must be >= 1");
      } else if (flag == "--queue") {
        opt.queue = u64();
        if (opt.queue == 0) die("--queue must be >= 1");
      } else if (flag == "--seed") {
        opt.seed = u64();
      } else if (flag == "--port") {
        const std::uint64_t p = u64();
        if (p == 0 || p > 65535) die("--port must be in 1..65535");
        opt.port = static_cast<std::uint16_t>(p);
      } else if (flag == "--out") {
        opt.out_dir = value;
        if (opt.out_dir.empty()) die("--out= needs a directory");
      } else if (flag == "--chaos") {
        if (value.empty()) die("--chaos= needs a spec (try --chaos=default)");
        opt.chaos = chaos_spec::parse(value);
      } else if (flag == "--access-log") {
        opt.access_log = value;
        if (opt.access_log.empty()) die("--access-log= needs a file path");
      } else if (flag == "--profile") {
        opt.profile = value;
        if (opt.profile.empty()) die("--profile= needs a file path");
      } else if (flag == "--min-goodput-ratio") {
        opt.min_goodput_ratio = lab::parse_real(value, flag);
        if (!(opt.min_goodput_ratio >= 0.0 && opt.min_goodput_ratio <= 1.0)) {
          die("--min-goodput-ratio expects a fraction in [0,1]");
        }
      } else {
        die("unknown argument '" + arg + "'");
      }
    } catch (const std::invalid_argument& e) {
      die(e.what());
    }
  }
  if (opt.chaos && opt.port != 0) {
    die("--chaos needs the in-process server (drop --port)");
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

/// The one pacing schedule: request i is sent no earlier than
/// start + i/rate; late requests go out back to back, and rate 0 floods.
class pacer {
 public:
  explicit pacer(double rate)
      : interval_(rate > 0.0
                      ? std::chrono::duration_cast<clock_type::duration>(
                            std::chrono::duration<double>(1.0 / rate))
                      : clock_type::duration::zero()) {}

  void wait_for(std::size_t i) const {
    if (interval_.count() > 0) {
      std::this_thread::sleep_until(start_ + interval_ * static_cast<long>(i));
    }
  }

 private:
  clock_type::duration interval_;
  clock_type::time_point start_ = clock_type::now();
};

struct phase_result {
  std::vector<double> latencies_ms;  // one per answered (open) / ok (closed)
  std::vector<double> by_op_ms[3];   // lmhat / estimate / reachability splits
  std::uint64_t errors = 0;     // typed ok:false responses
  std::uint64_t lost = 0;       // requests without a response
  std::uint64_t attempts = 0;   // closed loop: tries, retries included
  std::uint64_t malformed = 0;  // closed loop: surviving non-JSON lines
  double wall_seconds = 0.0;

  void record(std::size_t i, double ms) {
    latencies_ms.push_back(ms);
    const op_bucket bucket = bucket_of(i);
    if (bucket != op_bucket::other) {
      by_op_ms[static_cast<std::size_t>(bucket)].push_back(ms);
    }
  }

  double qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(latencies_ms.size()) / wall_seconds
               : 0.0;
  }

  void merge(const phase_result& r) {
    latencies_ms.insert(latencies_ms.end(), r.latencies_ms.begin(),
                        r.latencies_ms.end());
    for (std::size_t b = 0; b < 3; ++b) {
      by_op_ms[b].insert(by_op_ms[b].end(), r.by_op_ms[b].begin(),
                         r.by_op_ms[b].end());
    }
    errors += r.errors;
    lost += r.lost;
    attempts += r.attempts;
    malformed += r.malformed;
  }
};

double ms_since(clock_type::time_point t) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t)
      .count();
}

/// One connection's open-loop run: the writer fires requests at scheduled
/// instants (never waiting for responses); the reader timestamps each
/// in-order response against its send time.
void open_loop_connection(std::uint16_t port, const options& opt,
                          std::size_t conn, phase_result& out) {
  unique_fd fd = connect_loopback(port);
  std::vector<clock_type::time_point> sent(opt.requests);

  // Joined on every way out of this function, before `sent` and `fd` go.
  const std::jthread writer([&] {
    const pacer pace(opt.rate);
    for (std::size_t i = 0; i < opt.requests; ++i) {
      pace.wait_for(i);
      std::string line = make_request(opt.seed, conn, i);
      line += '\n';
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
    out.record(i, ms_since(sent[i]));
    if (line.find("\"ok\":true") == std::string::npos) ++out.errors;
  }
}

/// One connection's closed-loop run through a retry client: each call is
/// offered on the pacing schedule and timed through its retries, so
/// goodput compares what fraction of the same offered load survives each
/// phase rather than penalizing injected latency twice.
void closed_loop_connection(std::uint16_t port, const options& opt,
                            std::size_t conn, phase_result& out) {
  retry_policy policy;
  policy.max_attempts = 6;
  policy.attempt_timeout_ms = 30000;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 20;
  policy.seed = opt.seed * 1000003 + conn;  // per-client jitter stream
  retry_client client(port, policy);
  const pacer pace(opt.rate);
  for (std::size_t i = 0; i < opt.requests; ++i) {
    pace.wait_for(i);
    const auto sent = clock_type::now();
    const call_result result = client.call(make_request(opt.seed, conn, i));
    out.attempts += static_cast<std::uint64_t>(result.attempts);
    if (!result.response.empty()) {
      try {
        (void)mcast::json::parse(result.response);
      } catch (const std::exception&) {
        ++out.malformed;
      }
    }
    switch (result.status) {
      case call_status::ok: out.record(i, ms_since(sent)); break;
      case call_status::server_error: ++out.errors; break;
      default: ++out.lost; break;  // retries exhausted
    }
  }
}

using connection_fn = void (*)(std::uint16_t, const options&, std::size_t,
                               phase_result&);

/// Fans the phase's connections out on one thread each (all open at
/// once), joins them, and merges their results. An exception on any
/// connection, or in starting a thread, is rethrown after every started
/// thread has joined.
phase_result run_phase(std::uint16_t port, const options& opt,
                       connection_fn connection) {
  std::vector<phase_result> per_conn(opt.connections);
  std::vector<std::exception_ptr> failures(opt.connections);
  const auto begin = clock_type::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(opt.connections);
    for (std::size_t c = 0; c < opt.connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          connection(port, opt, c, per_conn[c]);
        } catch (...) {
          failures[c] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  phase_result total;
  total.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - begin).count();
  for (const phase_result& r : per_conn) total.merge(r);
  return total;
}

struct op_percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};

/// Exact percentile over the sorted sample (nearest-rank).
double percentile(const std::vector<double>& sorted, double q) {
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

/// An in-process mcast_serve: one query_service behind one line_server,
/// whose stats op reads this server's counters. The destructor drains it.
class local_server {
 public:
  explicit local_server(const server_config& config)
      : server_(config,
                [this](const std::string& line) { return svc_.handle(line); }) {
    svc_.set_stats_source([this] { return server_.stats(); });
  }

  local_server(const local_server&) = delete;
  local_server& operator=(const local_server&) = delete;

  std::uint16_t port() const noexcept { return server_.port(); }
  server_stats stats() const { return server_.stats(); }

 private:
  query_service svc_;  // declared first, so it outlives the server's workers
  line_server server_;
};

/// Holds a workers=1/queue=1 server busy with a slow Monte-Carlo request
/// and burst-connects it; returns how many typed `overloaded` rejections
/// the burst collected (the admission-control rate under saturation).
std::uint64_t overload_probe(std::uint64_t seed) {
  const local_server tiny(typed_config(1, 1));

  // Occupy the single worker with a deliberately heavy request.
  unique_fd busy = connect_loopback(tiny.port());
  const std::string slow =
      "{\"op\":\"lm_estimate\",\"topology\":\"ts1000\",\"budget\":300,"
      "\"grid_points\":12,\"sources\":48,\"receiver_sets\":24,\"seed\":" +
      std::to_string(seed) + "}\n";
  if (!send_all(busy.get(), slow)) return 0;
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
  return rejected;
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

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

/// The open-loop phases. Fills the record's SvcLoad fit and returns the
/// failed run contract, or "" when the run held it.
std::string open_loop_phases(const options& opt, lab::run_record& record) {
  // In-process server unless --port points at an external one.
  std::optional<local_server> server;
  if (opt.port == 0) server.emplace(typed_config(opt.workers, opt.queue));
  const std::uint16_t port = server ? server->port() : opt.port;
  std::cerr << "svc_load: target 127.0.0.1:" << port
            << (server ? " (in-process)" : " (external)") << " connections="
            << opt.connections << " requests=" << opt.requests
            << " rate=" << opt.rate << "/s\n";

  // Phase 1, warmup: populate the topology cache and spin up the workers.
  {
    options warm = opt;
    warm.connections = std::min<std::size_t>(opt.connections, 4);
    warm.requests = 16;
    warm.rate = 0.0;
    (void)run_phase(port, warm, open_loop_connection);
  }

  // Phase 2, measured.
  phase_result measured = run_phase(port, opt, open_loop_connection);
  const double qps = measured.qps();
  const op_percentiles all = summarize(measured.latencies_ms);

  // Latency attribution: the registry's svc.request_ns histogram times
  // the handler alone, the client-observed p99 adds queue wait and the
  // wire. The delta localizes a tail regression to one side. The bucket
  // quantile over-estimates by up to 2x, so a small negative delta just
  // means the two sides agree to within bucket granularity.
  double server_p99_ms = 0.0;
  double p99_delta_ms = 0.0;
  double qps_logged = 0.0;
  double accesslog_overhead = 0.0;
  std::uint64_t overload_rejections = 0;
  if (server) {
    server_p99_ms =
        mcast::obs::snapshot().at(mcast::obs::histogram::svc_request_ns).p99 /
        1e6;
    p99_delta_ms = all.p99 - server_p99_ms;

    // Phase 3, access log: the identical measured phase re-run with the
    // JSONL sink armed (and the span tracer, under --profile). The open
    // loop is rate-paced, so this measures the log's cost at the offered
    // rate, not at saturation.
    const std::string log_path = opt.access_log.empty()
                                     ? opt.out_dir + "/access_svc_load.jsonl"
                                     : opt.access_log;
    if (!opt.profile.empty()) {
      mcast::obs::trace_clear();
      mcast::obs::trace_enable();
    }
    mcast::obs::access_log_enable(log_path);
    const phase_result logged = run_phase(port, opt, open_loop_connection);
    mcast::obs::access_log_disable();
    if (!opt.profile.empty()) {
      mcast::obs::trace_disable();
      const mcast::obs::trace_dump dump = mcast::obs::trace_collect();
      mcast::obs::write_chrome_trace_file(opt.profile, dump);
      std::cerr << "svc_load: trace " << opt.profile << " ("
                << dump.events.size() << " events, " << dump.dropped
                << " dropped)\n";
    }
    qps_logged = logged.qps();
    accesslog_overhead =
        qps > 0.0 ? std::max(0.0, (qps - qps_logged) / qps) : 0.0;

    // Phase 4, overload probe, before the main server drains.
    overload_rejections = overload_probe(opt.seed);
    server.reset();
  }

  const std::uint64_t expected =
      static_cast<std::uint64_t>(opt.connections) * opt.requests;
  std::printf("svc_load results\n");
  std::printf("  requests     %llu / %llu answered (%llu error, %llu lost)\n",
              ull(measured.latencies_ms.size()), ull(expected),
              ull(measured.errors), ull(measured.lost));
  std::printf("  wall         %.3f s\n", measured.wall_seconds);
  std::printf("  throughput   %.1f req/s\n", qps);
  std::printf("  latency ms   p50=%.3f p95=%.3f p99=%.3f\n", all.p50, all.p95,
              all.p99);
  if (opt.port == 0) {
    std::printf("  server p99   %.3f ms (client-server delta %+.3f ms)\n",
                server_p99_ms, p99_delta_ms);
    std::printf("  access log   %.1f req/s logged (overhead %.2f%%)\n",
                qps_logged, 100.0 * accesslog_overhead);
    std::printf("  overload     %llu typed rejections under saturation\n",
                ull(overload_rejections));
  }

  record.experiment_id = "svc_load";
  record.title = "Service load: QPS and tail latency of mcast_serve";
  record.claim =
      "open-loop throughput, exact p50/p95/p99 latency, and typed "
      "admission-control rejections of the line-JSON query service";
  record.parameters.set("rate", opt.rate);
  record.parameters.set("external_port", static_cast<std::uint64_t>(opt.port));
  record.metric_groups = {"service", "topo_cache"};
  lab::fit_entry fit;
  fit.label = "SvcLoad";
  char text[256];
  std::snprintf(text, sizeof text,
                "qps=%.1f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f "
                "errors=%llu lost=%llu overload_rejections=%llu",
                qps, all.p50, all.p95, all.p99, ull(measured.errors),
                ull(measured.lost), ull(overload_rejections));
  fit.text = text;
  fit.values = {
      {"qps", qps},
      {"p50_ms", all.p50},
      {"p95_ms", all.p95},
      {"p99_ms", all.p99},
      {"server_p99_ms", server_p99_ms},
      {"p99_delta_ms", p99_delta_ms},
      {"qps_accesslog", qps_logged},
      {"accesslog_overhead_frac", accesslog_overhead},
      {"answered", static_cast<double>(measured.latencies_ms.size())},
      {"errors", static_cast<double>(measured.errors)},
      {"lost", static_cast<double>(measured.lost)},
      {"overload_rejections", static_cast<double>(overload_rejections)},
  };
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
  record.fits.push_back(std::move(fit));

  // Lost responses mean dropped connections mid-phase — that is a failure
  // of the zero-drop contract, not a statistic.
  if (measured.lost > 0) {
    return std::to_string(measured.lost) + " request(s) got no response";
  }
  return "";
}

/// The closed-loop chaos phases. Fills the record's SvcChaos fit and
/// returns the failed run contract, or "" when the run held it.
std::string closed_loop_phases(const options& opt, lab::run_record& record) {
  const chaos_spec& spec = *opt.chaos;
  std::cerr << "svc_load: chaos mode (" << spec.describe()
            << ") connections=" << opt.connections
            << " requests=" << opt.requests << "\n";

  // Phase 1, baseline: the retry-client workload against a fault-free
  // server.
  double baseline_qps = 0.0;
  {
    const local_server server(typed_config(opt.workers, opt.queue));
    const phase_result baseline =
        run_phase(server.port(), opt, closed_loop_connection);
    baseline_qps = baseline.qps();
    std::printf("svc_load chaos baseline\n");
    std::printf("  successes    %llu (%llu attempts)\n",
                ull(baseline.latencies_ms.size()), ull(baseline.attempts));
    std::printf("  goodput      %.1f req/s fault-free\n", baseline_qps);
  }

  // Phase 2, faulted: the same workload with the chaos shim armed.
  server_stats chaos_stats;
  phase_result faulted;
  {
    server_config config = typed_config(opt.workers, opt.queue);
    config.chaos = std::make_shared<const chaos_engine>(spec);
    const local_server server(config);
    faulted =
        run_phase(server.port(), opt, closed_loop_connection);
    chaos_stats = server.stats();
  }
  const std::uint64_t successes = faulted.latencies_ms.size();
  const double goodput = faulted.qps();
  const double ratio = baseline_qps > 0.0 ? goodput / baseline_qps : 0.0;
  const op_percentiles tail = summarize(faulted.latencies_ms);

  // Phase 3: deterministic shed-tier probe (no sockets involved).
  const shed_probe_result shed = run_shed_probe();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(opt.connections) * opt.requests;
  std::printf("svc_load chaos results\n");
  std::printf("  successes    %llu / %llu (%llu typed errors, %llu failed)\n",
              ull(successes), ull(expected), ull(faulted.errors),
              ull(faulted.lost));
  std::printf("  attempts     %llu (faults injected: %llu)\n",
              ull(faulted.attempts), ull(chaos_stats.chaos_injected));
  std::printf("  goodput      %.1f req/s (%.1f%% of fault-free)\n", goodput,
              100.0 * ratio);
  std::printf("  latency ms   p50=%.3f p99=%.3f (through retries)\n", tail.p50,
              tail.p99);
  std::printf("  shed probe   %llu degraded, %llu refused, contract %s\n",
              ull(shed.degraded), ull(shed.refused),
              shed.contract_ok ? "ok" : "VIOLATED");
  if (faulted.malformed > 0) {
    std::printf("  MALFORMED    %llu surviving non-JSON lines\n",
                ull(faulted.malformed));
  }

  record.experiment_id = "svc_chaos";
  record.title = "Service chaos: goodput and tails under fault injection";
  record.claim =
      "closed-loop goodput, retry pressure and p99-through-retries of "
      "mcast_serve under deterministic seeded fault injection, plus the "
      "cost-aware shedding tiers exercised deterministically";
  record.parameters.set("chaos", spec.describe());
  record.parameters.set("min_goodput_ratio", opt.min_goodput_ratio);
  record.metric_groups = {"service", "retry", "topo_cache"};
  lab::fit_entry fit;
  fit.label = "SvcChaos";
  char text[320];
  std::snprintf(text, sizeof text,
                "goodput_qps=%.1f baseline_qps=%.1f goodput_ratio=%.3f "
                "p50_ms=%.3f p99_ms=%.3f attempts=%llu faults=%llu "
                "shed_degraded=%llu shed_refused=%llu",
                goodput, baseline_qps, ratio, tail.p50, tail.p99,
                ull(faulted.attempts), ull(chaos_stats.chaos_injected),
                ull(shed.degraded), ull(shed.refused));
  fit.text = text;
  fit.values = {
      {"goodput_qps", goodput},
      {"baseline_qps", baseline_qps},
      {"goodput_ratio", ratio},
      {"p50_ms", tail.p50},
      {"p99_ms", tail.p99},
      {"successes", static_cast<double>(successes)},
      {"server_errors", static_cast<double>(faulted.errors)},
      {"transport_failures", static_cast<double>(faulted.lost)},
      {"attempts", static_cast<double>(faulted.attempts)},
      {"faults_injected", static_cast<double>(chaos_stats.chaos_injected)},
      {"deadline_closes", static_cast<double>(chaos_stats.deadline_closes)},
      {"shed_degraded", static_cast<double>(shed.degraded)},
      {"shed_refused", static_cast<double>(shed.refused)},
      {"malformed", static_cast<double>(faulted.malformed)},
  };
  record.fits.push_back(std::move(fit));

  if (faulted.malformed > 0) return "malformed line on a surviving connection";
  if (!shed.contract_ok) return "shed probe contract violated";
  if (ratio < opt.min_goodput_ratio) {
    return "goodput ratio " + std::to_string(ratio) + " below " +
           std::to_string(opt.min_goodput_ratio);
  }
  return "";
}

/// The one main flow: the phases of the selected loop, then one manifest,
/// shaped exactly like a lab run so `mcast_lab validate` and the
/// perf-trajectory tooling ingest it unchanged.
int run(const options& opt) {
  if (!std::filesystem::is_directory(opt.out_dir)) {
    throw std::runtime_error("--out=" + opt.out_dir +
                             " is not an existing directory");
  }
  mcast::obs::reset_metrics();
  const std::clock_t cpu_begin = std::clock();
  const auto wall_begin = clock_type::now();

  lab::run_record record;
  record.scale = lab::scale_from_env();
  record.threads = opt.workers;
  record.parameters.set("connections",
                        static_cast<std::uint64_t>(opt.connections));
  record.parameters.set("requests", static_cast<std::uint64_t>(opt.requests));
  record.parameters.set("workers", static_cast<std::uint64_t>(opt.workers));
  record.parameters.set("queue", static_cast<std::uint64_t>(opt.queue));
  record.parameters.set("seed", opt.seed);
  const std::string failure = opt.chaos ? closed_loop_phases(opt, record)
                                        : open_loop_phases(opt, record);
  record.git_revision = lab::current_git_revision();
  record.timestamp_utc = lab::utc_timestamp();
  record.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - wall_begin).count();
  record.cpu_seconds = static_cast<double>(std::clock() - cpu_begin) /
                       static_cast<double>(CLOCKS_PER_SEC);
  record.metrics = mcast::obs::snapshot();

  const std::string path =
      opt.out_dir +
      (opt.chaos ? "/BENCH_service_chaos.json" : "/BENCH_service.json");
  lab::write_manifest(record, path);
  std::cerr << "svc_load: manifest " << path << "\n";
  if (!failure.empty()) {
    std::cerr << "svc_load: FAIL: " << failure << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_options(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "svc_load: " << e.what() << "\n";
    return 2;
  }
}
