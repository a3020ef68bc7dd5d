#include "service/commands.hpp"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "net/chaos.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"

namespace mcast::service {
namespace {

[[noreturn]] void die(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Strict whole-string u64 parse for flag values (mirrors lab/params.hpp,
/// which this library deliberately does not link).
std::uint64_t parse_flag_u64(const std::string& text, const std::string& flag) {
  if (text.empty()) die(flag + " needs a value");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') die(flag + " expects an integer, got '" + text + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) die(flag + " value overflows");
    value = value * 10 + digit;
  }
  return value;
}

/// Strict probability parse for the shed thresholds.
double parse_flag_fraction(const std::string& text, const std::string& flag) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(v >= 0.0 && v <= 1.0)) {
    die(flag + " expects a fraction in [0,1], got '" + text + "'");
  }
  return v;
}

/// Accepts "--flag=value" and returns the value, or nullopt-style failure
/// via the bool. (No std::optional to keep the call sites terse.)
bool flag_value(const std::string& arg, const std::string& flag,
                std::string& out) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

struct serve_flags {
  std::uint16_t port = 0;
  std::size_t threads = 4;
  std::size_t queue = 64;
  std::size_t max_line = 1 << 20;
  int drain_ms = 5000;
  int line_deadline_ms = 30000;
  int write_deadline_ms = 30000;
  double shed_degrade = 2.0;  // > 1 = disabled
  double shed_refuse = 2.0;   // > 1 = disabled
  std::string chaos_spec;
  bool metrics_summary = false;
  std::string profile_path;
  std::string access_log_path;     // "" = access log off
  std::uint64_t slow_us = 0;       // 0 = no slow-query threshold
  std::uint64_t trace_seed = 0;    // salts the minted request trace ids
};

/// A deadline flag: integer ms, or "off" to disable (maps to -1).
int parse_deadline_ms(const std::string& text, const std::string& flag) {
  if (text == "off") return -1;
  const std::uint64_t ms = parse_flag_u64(text, flag);
  if (ms > 3600000) die(flag + " must be <= 3600000 (or 'off')");
  return static_cast<int>(ms);
}

serve_flags parse_serve_flags(const std::vector<std::string>& args) {
  serve_flags flags;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--port", value)) {
      const std::uint64_t port = parse_flag_u64(value, "--port");
      if (port > 65535) die("--port must be <= 65535");
      flags.port = static_cast<std::uint16_t>(port);
    } else if (flag_value(arg, "--threads", value)) {
      const std::uint64_t threads = parse_flag_u64(value, "--threads");
      if (threads == 0 || threads > 256) die("--threads must be in 1..256");
      flags.threads = static_cast<std::size_t>(threads);
    } else if (flag_value(arg, "--queue", value)) {
      const std::uint64_t queue = parse_flag_u64(value, "--queue");
      if (queue == 0 || queue > 65536) die("--queue must be in 1..65536");
      flags.queue = static_cast<std::size_t>(queue);
    } else if (flag_value(arg, "--max-line", value)) {
      const std::uint64_t bytes = parse_flag_u64(value, "--max-line");
      if (bytes < 256 || bytes > (1u << 26)) {
        die("--max-line must be in 256..67108864");
      }
      flags.max_line = static_cast<std::size_t>(bytes);
    } else if (flag_value(arg, "--drain-ms", value)) {
      flags.drain_ms = parse_deadline_ms(value, "--drain-ms");
    } else if (flag_value(arg, "--line-deadline-ms", value)) {
      flags.line_deadline_ms = parse_deadline_ms(value, "--line-deadline-ms");
    } else if (flag_value(arg, "--write-deadline-ms", value)) {
      flags.write_deadline_ms = parse_deadline_ms(value, "--write-deadline-ms");
    } else if (flag_value(arg, "--shed-degrade", value)) {
      flags.shed_degrade = parse_flag_fraction(value, "--shed-degrade");
    } else if (flag_value(arg, "--shed-refuse", value)) {
      flags.shed_refuse = parse_flag_fraction(value, "--shed-refuse");
    } else if (flag_value(arg, "--chaos", value)) {
      if (value.empty()) die("--chaos= needs a spec (try --chaos=default)");
      flags.chaos_spec = value;
    } else if (arg == "--metrics-summary") {
      flags.metrics_summary = true;
    } else if (flag_value(arg, "--profile", value)) {
      if (value.empty()) die("--profile= needs a file path");
      flags.profile_path = value;
    } else if (flag_value(arg, "--access-log", value)) {
      if (value.empty()) die("--access-log= needs a file path");
      flags.access_log_path = value;
    } else if (flag_value(arg, "--slow-us", value)) {
      flags.slow_us = parse_flag_u64(value, "--slow-us");
    } else if (flag_value(arg, "--trace-seed", value)) {
      flags.trace_seed = parse_flag_u64(value, "--trace-seed");
    } else {
      die("serve: unknown argument '" + arg + "'");
    }
  }
  return flags;
}

}  // namespace

int run_serve(const std::vector<std::string>& args) {
  const serve_flags flags = parse_serve_flags(args);

  // Block the shutdown signals before any thread exists so the acceptor
  // and workers inherit the mask; only this thread's sigwait sees them.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &signals, nullptr) != 0) {
    throw std::runtime_error("serve: pthread_sigmask failed");
  }

  if (!flags.profile_path.empty()) {
    obs::trace_clear();
    obs::trace_enable();
  }
  if (!flags.access_log_path.empty()) {
    obs::access_log_enable(flags.access_log_path, flags.slow_us * 1000);
  }

  auto service = std::make_shared<query_service>();

  net::server_config config;
  config.port = flags.port;
  config.workers = flags.threads;
  config.queue_capacity = flags.queue;
  config.max_line_bytes = flags.max_line;
  config.line_deadline_ms = flags.line_deadline_ms;
  config.write_deadline_ms = flags.write_deadline_ms;
  config.drain_deadline_ms = flags.drain_ms;
  config.trace_seed = flags.trace_seed;
  config.overload_response = error_response(
      error_code::overloaded, "connection queue full; retry later");
  config.overlong_response = error_response(
      error_code::limit_exceeded,
      "request line exceeds " + std::to_string(flags.max_line) + " bytes");
  config.internal_error_response =
      error_response(error_code::internal_error, "request handler failed");
  config.deadline_response = error_response(
      error_code::deadline_exceeded,
      "request or response outlived the server's deadline");
  if (!flags.chaos_spec.empty()) {
    config.chaos = std::make_shared<const net::chaos_engine>(
        net::chaos_spec::parse(flags.chaos_spec));
  }

  // The service is configured completely before the server starts its
  // workers, which may call it at once. Its stats and pressure sources
  // reach the server through an atomic pointer, published once it exists.
  std::atomic<const net::line_server*> live{nullptr};
  service->set_stats_source([&live] {
    const net::line_server* s = live.load(std::memory_order_acquire);
    return s != nullptr ? s->stats() : net::server_stats{};
  });
  if (flags.shed_degrade <= 1.0 || flags.shed_refuse <= 1.0) {
    shed_policy policy;
    policy.degrade_at = flags.shed_degrade;
    policy.refuse_at = flags.shed_refuse;
    const double capacity = static_cast<double>(flags.queue);
    service->set_shed_policy(policy);
    service->set_pressure_source([&live, capacity] {
      const net::line_server* s = live.load(std::memory_order_acquire);
      return s != nullptr
                 ? static_cast<double>(s->stats().queue_depth) / capacity
                 : 0.0;
    });
  }
  net::line_server server(config, [service](const std::string& line) {
    return service->handle(line);
  });
  live.store(&server, std::memory_order_release);

  std::cerr << "[mcast_lab] serve: listening on 127.0.0.1:" << server.port()
            << " workers=" << flags.threads << " queue=" << flags.queue;
  if (!flags.access_log_path.empty()) {
    std::cerr << " access-log=" << flags.access_log_path;
    if (flags.slow_us > 0) std::cerr << " slow-us=" << flags.slow_us;
  }
  std::cerr << "\n";
  if (config.chaos) {
    std::cerr << "[mcast_lab] serve: chaos enabled ("
              << config.chaos->spec().describe() << ")\n";
  }
  std::cerr.flush();

  int caught = 0;
  while (sigwait(&signals, &caught) != 0) {
  }
  std::cerr << "[mcast_lab] serve: received "
            << (caught == SIGTERM ? "SIGTERM" : "SIGINT")
            << ", draining\n";
  server.shutdown();
  server.wait();

  const net::server_stats stats = server.stats();
  std::cerr << "[mcast_lab] serve: drained; " << stats.requests
            << " request(s), " << stats.accepted << " accepted, "
            << stats.rejected << " rejected, " << stats.drain_forced
            << " force-closed\n";
  if (!flags.access_log_path.empty()) {
    obs::access_log_disable();  // flush before the process exits
  }
  if (flags.metrics_summary) {
    obs::render_metrics_summary(std::cerr, obs::snapshot());
  }
  if (!flags.profile_path.empty()) {
    obs::trace_disable();
    const obs::trace_dump dump = obs::trace_collect();
    obs::write_chrome_trace_file(flags.profile_path, dump);
    std::cerr << "[mcast_lab] serve: trace " << flags.profile_path << " ("
              << dump.events.size() << " events, " << dump.dropped
              << " dropped)\n";
  }
  return 0;
}

int run_query(const std::vector<std::string>& args) {
  std::uint16_t port = 0;
  retry_policy policy;
  policy.attempt_timeout_ms = 120000;
  std::string batch_path;
  std::vector<std::string> requests;
  for (const std::string& arg : args) {
    std::string value;
    if (flag_value(arg, "--batch", value)) {
      if (value.empty()) die("--batch= needs a file path");
      batch_path = value;
    } else if (flag_value(arg, "--port", value)) {
      const std::uint64_t p = parse_flag_u64(value, "--port");
      if (p == 0 || p > 65535) die("--port must be in 1..65535");
      port = static_cast<std::uint16_t>(p);
    } else if (flag_value(arg, "--timeout-ms", value)) {
      const std::uint64_t t = parse_flag_u64(value, "--timeout-ms");
      if (t == 0 || t > 3600000) die("--timeout-ms must be in 1..3600000");
      policy.attempt_timeout_ms = static_cast<int>(t);
    } else if (flag_value(arg, "--retries", value)) {
      const std::uint64_t n = parse_flag_u64(value, "--retries");
      if (n == 0 || n > 100) die("--retries must be in 1..100");
      policy.max_attempts = static_cast<int>(n);
    } else if (flag_value(arg, "--backoff-ms", value)) {
      const std::uint64_t b = parse_flag_u64(value, "--backoff-ms");
      if (b > 60000) die("--backoff-ms must be <= 60000");
      policy.backoff_base_ms = static_cast<int>(b);
    } else if (flag_value(arg, "--seed", value)) {
      policy.seed = parse_flag_u64(value, "--seed");
    } else if (flag_value(arg, "--trace", value)) {
      if (value.empty()) die("--trace= needs a token base");
      if (value.size() > max_trace_token_bytes - 8) {
        die("--trace token base is too long (limit " +
            std::to_string(max_trace_token_bytes - 8) + " bytes)");
      }
      policy.trace_base = value;
    } else if (!arg.empty() && arg[0] == '-') {
      die("query: unknown option '" + arg + "'");
    } else {
      requests.push_back(arg);
    }
  }
  if (port == 0) die("query: --port=N is required");
  if (!batch_path.empty()) {
    // --batch FILE: one sub-op per line, folded into a single batch
    // envelope so the whole file is one request/response round trip.
    if (!requests.empty()) {
      die("query: --batch cannot be mixed with positional request lines");
    }
    std::ifstream in(batch_path);
    if (!in) die("query: cannot open batch file '" + batch_path + "'");
    json::value ops = json::value::array();
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      try {
        ops.push(json::parse(line));
      } catch (const std::exception& e) {
        die("query: " + batch_path + ":" + std::to_string(line_no) +
            ": invalid JSON (" + e.what() + ")");
      }
    }
    if (ops.items().empty()) die("query: batch file has no request lines");
    json::value envelope = json::value::object();
    envelope.set("op", json::value::string("batch"));
    envelope.set("ops", std::move(ops));
    requests.push_back(json::dump_compact(envelope));
  } else if (requests.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
  }
  if (requests.empty()) die("query: no request lines (argv or stdin)");

  // Exit codes (docs/resilience.md): 0 all ok, 1 usage, 2 typed server
  // error, 3 connect refused after retries, 4 timeout / connection lost
  // after retries. Transport failures abort the batch (later requests
  // would hit the same wall); typed errors keep going so a mixed batch
  // still prints every response it can get.
  retry_client client(port, policy);
  int exit_code = 0;
  for (const std::string& request : requests) {
    const call_result result = client.call(request);
    if (!batch_path.empty() && result.status == call_status::ok) {
      // Unpack the envelope: one result document per input line, in input
      // order; any failed sub-op turns the exit code into 2 (the same
      // aggregation positional request lines get from typed errors).
      const json::value doc = json::parse(result.response);
      const json::value* res = doc.get("result");
      const json::value* results =
          res == nullptr ? nullptr : res->get("results");
      if (results == nullptr || !results->is(json::value::kind::array)) {
        std::cout << result.response << "\n";
        std::cerr << "mcast_lab: query: batch response missing results\n";
        exit_code = 2;
        continue;
      }
      for (const json::value& sub : results->items()) {
        std::cout << json::dump_compact(sub) << "\n";
      }
      const json::value* errors = res->get("error_count");
      if (errors != nullptr && errors->as_number() > 0) {
        std::cerr << "mcast_lab: query: " << errors->as_number() << " of "
                  << results->items().size() << " batch sub-op(s) failed\n";
        exit_code = 2;
      }
      continue;
    }
    if (!result.response.empty()) std::cout << result.response << "\n";
    switch (result.status) {
      case call_status::ok:
        break;
      case call_status::server_error:
        std::cerr << "mcast_lab: query: server error"
                  << (result.error_code.empty() ? ""
                                                : " (" + result.error_code + ")")
                  << " after " << result.attempts << " attempt(s)\n";
        exit_code = 2;
        break;
      case call_status::connect_refused:
        std::cerr << "mcast_lab: query: connection refused after "
                  << result.attempts << " attempt(s)\n";
        std::cout.flush();
        return 3;
      case call_status::timeout:
      case call_status::connection_lost:
        std::cerr << "mcast_lab: query: no response ("
                  << call_status_name(result.status) << ") after "
                  << result.attempts << " attempt(s)\n";
        std::cout.flush();
        return 4;
    }
  }
  std::cout.flush();
  return exit_code;
}

}  // namespace mcast::service
