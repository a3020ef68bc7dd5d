// Loopback integration tests for the stateful group_* service ops:
//   * concurrent clients churning disjoint groups through a line_server
//     over real sockets — every response byte-identical to a serial
//     replay through a fresh query_service, and group_list renders the
//     same bytes after both;
//   * unknown groups / precondition failures are bad_request, never
//     internal_error;
//   * batch envelopes carry group ops: each slot is the standalone
//     response of the same op sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"

namespace mcast::service {
namespace {

using net::line_reader;
using net::line_server;
using net::server_config;
using net::unique_fd;

constexpr int kReadTimeoutMs = 60000;

server_config service_config(std::size_t workers, std::size_t queue) {
  server_config config;
  config.port = 0;
  config.workers = workers;
  config.queue_capacity = queue;
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

/// One client's op sequence against its own group. Each client gets a
/// distinct topology_seed, so its groups live in a distinct scope
/// ("ARPA:<c>:0") — disjoint state in the one group manager.
std::vector<std::string> client_requests(int c) {
  const std::string t =
      "\"topology\":\"ARPA\",\"topology_seed\":" + std::to_string(c);
  const std::string g = ",\"group\":\"g" + std::to_string(c) + "\"";
  const std::string site_a = std::to_string((c % 20) + 10);
  const std::string site_b = std::to_string((c + 7) % 25);
  return {
      "{\"op\":\"group_create\"," + t + g + ",\"source\":" +
          std::to_string(c % 10) + "}",
      "{\"op\":\"group_join\"," + t + g + ",\"site\":" + site_a +
          ",\"count\":2}",
      "{\"op\":\"group_join\"," + t + g + ",\"site\":" + site_b + "}",
      "{\"op\":\"group_stats\"," + t + g + "}",
      "{\"op\":\"group_leave\"," + t + g + ",\"site\":" + site_a + "}",
      "{\"op\":\"group_stats\"," + t + g + "}",
  };
}

TEST(service_group, concurrent_disjoint_groups_match_serial_replay) {
  obs::reset_metrics();
  auto svc = std::make_shared<query_service>();
  line_server server(
      service_config(4, 64),
      [svc](const std::string& line) { return svc->handle(line); });

  constexpr int kClients = 16;
  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c) requests[c] = client_requests(c);

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
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), requests[c].size()) << "client " << c;
  }
  // The listing, rendered while the served instance is live.
  const std::string live_list = svc->handle("{\"op\":\"group_list\"}");

  const obs::metrics_snapshot snap = obs::snapshot();
  if (snap.compiled_in) {
    EXPECT_EQ(snap.at(obs::counter::svc_group_creates),
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(snap.at(obs::counter::svc_group_joins),
              static_cast<std::uint64_t>(2 * kClients));
    EXPECT_EQ(snap.at(obs::counter::svc_group_leaves),
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(snap.at(obs::counter::svc_group_stats),
              static_cast<std::uint64_t>(2 * kClients));
    EXPECT_EQ(snap.at(obs::counter::group_created),
              static_cast<std::uint64_t>(kClients));
  }

  // Byte-identity: every response must replay bit-for-bit through a fresh
  // query_service driven serially — group state is a pure function of the
  // per-group op sequence, so the concurrent interleaving above must not
  // be observable.
  query_service replay;
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < requests[c].size(); ++i) {
      EXPECT_EQ(responses[c][i], replay.handle(requests[c][i]))
          << "client " << c << " request " << i;
    }
  }
  EXPECT_EQ(live_list, replay.handle("{\"op\":\"group_list\"}"));

  server.shutdown();
  server.wait();
}

TEST(service_group, precondition_failures_are_bad_request) {
  query_service flat;

  const std::vector<std::string> bad = {
      // Unknown group: stats, join, leave.
      "{\"op\":\"group_stats\",\"topology\":\"ARPA\",\"group\":\"nope\"}",
      "{\"op\":\"group_join\",\"topology\":\"ARPA\",\"group\":\"nope\","
      "\"site\":1}",
      "{\"op\":\"group_leave\",\"topology\":\"ARPA\",\"group\":\"nope\","
      "\"site\":1}",
      // Source out of range, bad mode, core knobs on a source-mode group.
      "{\"op\":\"group_create\",\"topology\":\"ARPA\",\"group\":\"g\","
      "\"source\":100000}",
      "{\"op\":\"group_create\",\"topology\":\"ARPA\",\"group\":\"g\","
      "\"mode\":\"anycast\"}",
      "{\"op\":\"group_create\",\"topology\":\"ARPA\",\"group\":\"g\","
      "\"core_seed\":3}",
  };
  for (const std::string& r : bad) {
    const std::string resp = flat.handle(r);
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << r;
    EXPECT_NE(resp.find("bad_request"), std::string::npos) << resp;
    EXPECT_EQ(resp.find("internal_error"), std::string::npos) << resp;
  }

  // Stateful preconditions: duplicate create, site joined out of range,
  // leaving more instances than are joined.
  const std::string create =
      "{\"op\":\"group_create\",\"topology\":\"ARPA\",\"group\":\"g\"}";
  EXPECT_NE(flat.handle(create).find("\"ok\":true"), std::string::npos);
  const std::vector<std::string> stateful = {
      create,  // duplicate
      "{\"op\":\"group_join\",\"topology\":\"ARPA\",\"group\":\"g\","
      "\"site\":100000}",
      "{\"op\":\"group_leave\",\"topology\":\"ARPA\",\"group\":\"g\","
      "\"site\":2,\"count\":5}",
  };
  for (const std::string& r : stateful) {
    const std::string resp = flat.handle(r);
    EXPECT_NE(resp.find("bad_request"), std::string::npos) << resp;
    EXPECT_EQ(resp.find("internal_error"), std::string::npos) << resp;
  }
}

TEST(service_group, batch_envelope_slots_match_standalone_group_ops) {
  // One batch that creates a shared-tree group, mutates it, reads it back
  // and trips on an unknown op: each slot must carry the bytes the same
  // op gets standalone, in the same order, on a fresh service.
  const std::vector<std::string> subs = {
      "{\"op\":\"group_create\",\"topology\":\"ARPA\",\"group\":\"b\","
      "\"mode\":\"shared\",\"core_strategy\":\"degree_center\","
      "\"core_seed\":5}",
      "{\"op\":\"group_join\",\"topology\":\"ARPA\",\"group\":\"b\","
      "\"site\":9,\"count\":3}",
      "{\"op\":\"group_stats\",\"topology\":\"ARPA\",\"group\":\"b\"}",
      "{\"op\":\"nosuch\"}",
      "{\"op\":\"group_leave\",\"topology\":\"ARPA\",\"group\":\"b\","
      "\"site\":9}",
      "{\"op\":\"group_list\"}",
  };
  std::string batch = "{\"op\":\"batch\",\"id\":\"gb\",\"ops\":[";
  for (std::size_t i = 0; i < subs.size(); ++i) {
    batch += (i == 0 ? "" : ",") + subs[i];
  }
  batch += "]}";

  query_service batched;
  const json::value doc = json::parse(batched.handle(batch));
  ASSERT_TRUE(doc.get("ok")->as_bool());
  const std::vector<json::value>& slots =
      doc.get("result")->get("results")->items();
  ASSERT_EQ(slots.size(), subs.size());

  query_service standalone;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(json::dump_compact(slots[i]), standalone.handle(subs[i]))
        << "slot " << i;
  }
}

}  // namespace
}  // namespace mcast::service
