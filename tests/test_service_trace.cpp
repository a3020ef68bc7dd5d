// End-to-end request tracing + access log through the service stack:
//   * trace_request_id is a pure deterministic mint that is never 0;
//   * the line server writes one access-log record per request, with the
//     latency split, byte counts, outcome, and the client "trace" token;
//   * the slow-query threshold flags records and feeds svc.access.slow;
//   * shed refusals produce shed-tagged records with the typed outcome;
//   * a connection queued behind a busy worker logs its queue wait on its
//     first request's record, and 0 on later ones;
//   * batch sub-op spans carry their parent request's trace id (the
//     property `same_trace` rules check);
//   * responses from a traced, access-logged 8-client run are
//     byte-identical to an untraced serial replay — observability must
//     never change the bytes on the wire.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/access_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"
#include "proc_util.hpp"

namespace mcast::service {
namespace {

using net::line_reader;
using net::line_server;
using net::server_config;
using net::unique_fd;

constexpr int kReadTimeoutMs = 60000;

server_config traced_config(std::uint64_t trace_seed, std::size_t workers = 2) {
  server_config config;
  config.port = 0;
  config.workers = workers;
  config.queue_capacity = 64;
  config.trace_seed = trace_seed;
  config.overload_response =
      error_response(error_code::overloaded, "connection queue full");
  config.overlong_response =
      error_response(error_code::limit_exceeded, "request line too long");
  config.internal_error_response =
      error_response(error_code::internal_error, "handler failed");
  return config;
}

std::vector<std::string> roundtrip(std::uint16_t port,
                                   const std::vector<std::string>& requests) {
  unique_fd conn = net::connect_loopback(port);
  std::string batch;
  for (const std::string& r : requests) batch += r + "\n";
  if (!net::send_all(conn.get(), batch)) {
    ADD_FAILURE() << "send failed";
    return {};
  }
  std::vector<std::string> responses;
  line_reader reader(conn.get(), 1 << 22);
  std::string line;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const line_reader::status st = reader.read_line(line, kReadTimeoutMs);
    if (st != line_reader::status::line) {
      ADD_FAILURE() << "response " << i << " missing (status "
                    << static_cast<int>(st) << ")";
      return responses;
    }
    responses.push_back(line);
  }
  return responses;
}

std::vector<json::value> read_access_log(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<json::value> records;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(json::parse(line));
  }
  return records;
}

std::string str_field(const json::value& rec, const char* key) {
  const json::value* v = rec.get(key);
  if (v == nullptr || !v->is(json::value::kind::string)) {
    ADD_FAILURE() << "missing string field '" << key << "'";
    return std::string();
  }
  return v->as_string();
}

double num_field(const json::value& rec, const char* key) {
  const json::value* v = rec.get(key);
  if (v == nullptr || !v->is(json::value::kind::number)) {
    ADD_FAILURE() << "missing numeric field '" << key << "'";
    return 0.0;
  }
  return v->as_number();
}

bool bool_field(const json::value& rec, const char* key) {
  const json::value* v = rec.get(key);
  if (v == nullptr || !v->is(json::value::kind::boolean)) {
    ADD_FAILURE() << "missing boolean field '" << key << "'";
    return false;
  }
  return v->as_bool();
}

/// RAII cleanup so one test's sink/rings never leak into the next.
struct obs_guard {
  obs_guard() {
    obs::reset_metrics();
    obs::trace_disable();
    obs::trace_clear();
  }
  ~obs_guard() {
    obs::access_log_disable();
    obs::trace_disable();
    obs::trace_clear();
    obs::reset_metrics();
  }
};

std::string temp_path(const char* name) {
  return testproc::temp_path(std::string("svc_trace_") + name);
}

// --- trace_request_id: pure, deterministic, never zero -----------------

TEST(trace_request_id, deterministic_and_never_zero) {
  // Pure function: same inputs, same id — across calls and processes.
  EXPECT_EQ(obs::trace_request_id(7, 3, 11), obs::trace_request_id(7, 3, 11));

  // Distinct over a small sweep, and never the "no trace" sentinel 0.
  std::set<std::uint64_t> ids;
  for (std::uint64_t seed : {0ull, 1ull, 42ull}) {
    for (std::uint64_t conn = 0; conn < 8; ++conn) {
      for (std::uint64_t op = 0; op < 8; ++op) {
        const std::uint64_t id = obs::trace_request_id(seed, conn, op);
        EXPECT_NE(id, 0u);
        ids.insert(id);
      }
    }
  }
  EXPECT_EQ(ids.size(), 3u * 8u * 8u) << "id collision in a tiny sweep";

  // compile-time usable (constexpr), as the header promises.
  static_assert(obs::trace_request_id(0, 0, 0) != 0, "mint must avoid 0");
}

// --- access log through the full server stack --------------------------

TEST(service_trace, access_log_records_every_request) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  const std::string path = temp_path("access.jsonl");
  obs::access_log_enable(path);

  auto svc = std::make_shared<query_service>();
  line_server server(traced_config(/*trace_seed=*/42),
                     [svc](const std::string& line) {
                       return svc->handle(line);
                     });
  const std::vector<std::string> requests = {
      "{\"op\":\"lmhat\",\"trace\":\"cli-a1\",\"k\":3,\"depth\":4,"
      "\"n\":[1,10,100]}",
      "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":0}",
      "{\"op\":\"nosuch\"}",
  };
  const std::vector<std::string> responses =
      roundtrip(server.port(), requests);
  ASSERT_EQ(responses.size(), requests.size());
  server.shutdown();
  server.wait();
  obs::access_log_disable();

  const std::vector<json::value> records = read_access_log(path);
  ASSERT_EQ(records.size(), requests.size());
  for (const json::value& rec : records) {
    EXPECT_EQ(str_field(rec, "schema"), obs::k_access_log_schema);
    // The server-minted id: 16 hex chars, never the zero sentinel.
    const std::string trace = str_field(rec, "trace");
    EXPECT_EQ(trace.size(), 16u);
    EXPECT_NE(trace, "0000000000000000");
    EXPECT_GT(num_field(rec, "total_ns"), 0.0);
    EXPECT_GT(num_field(rec, "bytes_in"), 0.0);
    EXPECT_GT(num_field(rec, "bytes_out"), 0.0);
    EXPECT_FALSE(bool_field(rec, "chaos"));
  }
  // Requests are served in order on one connection, so records line up.
  EXPECT_EQ(str_field(records[0], "op"), "lmhat");
  EXPECT_EQ(str_field(records[0], "token"), "cli-a1");
  EXPECT_EQ(str_field(records[0], "outcome"), "ok");
  EXPECT_EQ(str_field(records[1], "op"), "reachability");
  EXPECT_EQ(str_field(records[1], "topology"), "ARPA");
  EXPECT_EQ(str_field(records[2], "outcome"), "unknown_op");
  // The minted ids are distinct per request.
  EXPECT_NE(str_field(records[0], "trace"), str_field(records[1], "trace"));

  const obs::metrics_snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.at(obs::counter::svc_access_records), records.size());
  EXPECT_EQ(snap.at(obs::counter::svc_access_slow), 0u);
}

TEST(service_trace, slow_threshold_flags_records) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  const std::string path = temp_path("slow.jsonl");
  // A 1ns threshold flags everything: the flag and counter must follow.
  obs::access_log_enable(path, /*slow_ns=*/1);

  auto svc = std::make_shared<query_service>();
  line_server server(traced_config(7), [svc](const std::string& line) {
    return svc->handle(line);
  });
  const auto responses = roundtrip(
      server.port(), {"{\"op\":\"lmhat\",\"k\":2,\"depth\":3,\"n\":[1]}"});
  ASSERT_EQ(responses.size(), 1u);
  server.shutdown();
  server.wait();
  obs::access_log_disable();

  const std::vector<json::value> records = read_access_log(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(bool_field(records[0], "slow"));
  EXPECT_GE(obs::snapshot().at(obs::counter::svc_access_slow), 1u);
}

TEST(service_trace, shed_refusal_is_shed_tagged) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  const std::string path = temp_path("shed.jsonl");
  obs::access_log_enable(path);

  auto svc = std::make_shared<query_service>();
  shed_policy policy;
  policy.degrade_at = 0.5;
  policy.refuse_at = 0.9;
  svc->set_shed_policy(policy);
  svc->set_pressure_source([] { return 1.0; });  // saturated: refuse tier
  line_server server(traced_config(7), [svc](const std::string& line) {
    return svc->handle(line);
  });
  const auto responses = roundtrip(
      server.port(),
      {"{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":[2],"
       "\"sources\":2,\"receiver_sets\":1,\"seed\":1}"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"code\":\"shed\""), std::string::npos)
      << responses[0];
  server.shutdown();
  server.wait();
  obs::access_log_disable();

  const std::vector<json::value> records = read_access_log(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(str_field(records[0], "outcome"), "shed");
  EXPECT_TRUE(bool_field(records[0], "shed"));
}

TEST(service_trace, queued_connection_logs_its_queue_wait) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  const std::string path = temp_path("queue_wait.jsonl");
  obs::access_log_enable(path);

  // One worker, held inside the handler by the "hold" request until the
  // test opens the gate; a second connection queues behind it meanwhile.
  auto svc = std::make_shared<query_service>();
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  line_server server(traced_config(/*trace_seed=*/5, /*workers=*/1),
                     [svc, opened](const std::string& line) {
                       if (line.find("\"id\":\"hold\"") != std::string::npos) {
                         opened.wait();
                       }
                       return svc->handle(line);
                     });

  unique_fd holder = net::connect_loopback(server.port());
  EXPECT_TRUE(
      net::send_all(holder.get(), "{\"op\":\"healthz\",\"id\":\"hold\"}\n"));
  for (int i = 0; i < 2000 && server.stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().inflight, 1u) << "the worker never took the holder";

  std::vector<std::string> queued_responses;
  std::thread queued([&] {
    queued_responses = roundtrip(
        server.port(), {"{\"op\":\"healthz\",\"id\":\"q0\"}",
                        "{\"op\":\"healthz\",\"id\":\"q1\"}"});
  });
  for (int i = 0; i < 2000 && server.stats().queue_depth == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().queue_depth, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_value();
  // The worker owns the holder's connection until it closes.
  line_reader reader(holder.get(), 1 << 16);
  std::string line;
  EXPECT_EQ(reader.read_line(line, kReadTimeoutMs), line_reader::status::line);
  holder.reset();
  queued.join();
  ASSERT_EQ(queued_responses.size(), 2u);
  server.shutdown();
  server.wait();
  obs::access_log_disable();

  const std::vector<json::value> records = read_access_log(path);
  ASSERT_EQ(records.size(), 3u);
  // The single worker serves the holder first, then the queued connection.
  EXPECT_GE(num_field(records[1], "queue_wait_ns"), 20e6)
      << "the queued connection waited at least the 20 ms the test held it";
  EXPECT_EQ(num_field(records[2], "queue_wait_ns"), 0.0)
      << "later requests on a connection never waited for a worker";
}

// --- span identity -------------------------------------------------------

TEST(service_trace, batch_subop_spans_carry_request_trace_id) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  obs::trace_enable();

  auto svc = std::make_shared<query_service>();
  line_server server(traced_config(/*trace_seed=*/11),
                     [svc](const std::string& line) {
                       return svc->handle(line);
                     });
  // One request: a batch whose slots succeed and fail — the failing
  // slot's span must still carry the request's id.
  const auto responses = roundtrip(
      server.port(),
      {"{\"op\":\"batch\",\"ops\":["
       "{\"op\":\"lmhat\",\"k\":2,\"depth\":3,\"n\":[1,10]},"
       "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":1},"
       "{\"op\":\"nosuch\"}]}"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("unknown_op"), std::string::npos)
      << "failing slot must keep its typed error: " << responses[0];
  server.shutdown();
  server.wait();
  obs::trace_disable();

  const obs::trace_dump dump = obs::trace_collect();
  const obs::trace_event* request = nullptr;
  std::size_t subops = 0;
  for (const obs::trace_event& e : dump.events) {
    if (e.name == "request") {
      ASSERT_EQ(request, nullptr) << "one request, one root span";
      request = &e;
    }
  }
  ASSERT_NE(request, nullptr);
  EXPECT_NE(request->trace_id, 0u);
  EXPECT_NE(request->span_id, 0u);
  EXPECT_EQ(request->parent_id, 0u);
  for (const obs::trace_event& e : dump.events) {
    if (e.name == "batch.subop") {
      ++subops;
      EXPECT_EQ(e.trace_id, request->trace_id) << "sub-op lost its request";
      EXPECT_EQ(e.parent_id, request->span_id);
      EXPECT_EQ(e.tid, request->tid) << "sub-ops run on the request's lane";
    }
  }
  EXPECT_EQ(subops, 3u) << "every slot spans, the failing one included";
}

// --- byte identity: observability must not change the wire -------------

TEST(service_trace, traced_run_is_byte_identical_to_untraced_replay) {
  if (!obs::snapshot().compiled_in) GTEST_SKIP() << "obs disabled";
  obs_guard guard;
  const std::string path = temp_path("identity.jsonl");
  obs::trace_enable();
  obs::access_log_enable(path);

  auto svc = std::make_shared<query_service>();
  line_server server(traced_config(/*trace_seed=*/3, /*workers=*/4),
                     [svc](const std::string& line) {
                       return svc->handle(line);
                     });

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    requests[c] = {
        "{\"op\":\"lmhat\",\"trace\":\"c" + std::to_string(c) +
            "-a1\",\"k\":" + std::to_string(2 + c % 4) +
            ",\"depth\":4,\"n\":[1,10,100]}",
        "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":"
        "[2,4],\"sources\":2,\"receiver_sets\":2,\"seed\":" +
            std::to_string(50 + c) + "}",
        "{\"op\":\"batch\",\"trace\":\"b" + std::to_string(c) +
            "-a1\",\"ops\":[{\"op\":\"lmhat\",\"k\":2,\"depth\":3,"
            "\"n\":[1,10]},{\"op\":\"nosuch\"}]}",
    };
  }
  std::vector<std::vector<std::string>> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        responses[c] = roundtrip(server.port(), requests[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.shutdown();
  server.wait();
  obs::access_log_disable();
  obs::trace_disable();

  // The client "trace" token is echoed (it is part of the request bytes),
  // but the server-minted ids must never leak into a response.
  EXPECT_NE(responses[0][0].find("\"trace\":\"c0-a1\""), std::string::npos)
      << responses[0][0];

  // Serial replay through a fresh service with all observability off.
  query_service quiet;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), requests[c].size()) << "client " << c;
    for (std::size_t i = 0; i < requests[c].size(); ++i) {
      EXPECT_EQ(responses[c][i], quiet.handle(requests[c][i]))
          << "client " << c << " request " << i
          << ": tracing changed the response bytes";
    }
  }

  // Every request also left exactly one access record.
  EXPECT_EQ(read_access_log(path).size(),
            static_cast<std::size_t>(kClients) * 3u);
}

}  // namespace
}  // namespace mcast::service
