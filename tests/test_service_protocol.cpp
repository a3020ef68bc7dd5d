// query_service::handle() unit contracts — no sockets involved:
//   * a corpus of malformed/hostile lines each gets the right typed error
//     (and never an exception: handle() is noexcept);
//   * per-request limits surface as limit_exceeded;
//   * deterministic ops are byte-identical across service instances,
//     repeated calls, and Monte-Carlo thread counts;
//   * response framing is single-line JSON with the id echoed;
//   * batch envelopes: sub-op documents byte-identical to standalone
//     responses, per-slot typed errors, nested-batch and cap rejections.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "service/protocol.hpp"
#include "service/query_service.hpp"

namespace mcast::service {
namespace {

std::string error_code_of(const std::string& response) {
  const json::value doc = json::parse(response);
  const json::value* ok = doc.get("ok");
  if (ok == nullptr || !ok->is(json::value::kind::boolean)) return "<no ok>";
  if (ok->as_bool()) return "<ok>";
  const json::value* err = doc.get("error");
  if (err == nullptr) return "<no error>";
  const json::value* code = err->get("code");
  return code == nullptr ? "<no code>" : code->as_string();
}

bool is_ok(const std::string& response) {
  return error_code_of(response) == "<ok>";
}

TEST(service_protocol, malformed_corpus_gets_typed_errors) {
  query_service svc;
  const struct {
    const char* line;
    const char* expected_code;
  } corpus[] = {
      {"", "parse_error"},
      {"   ", "parse_error"},
      {"not json at all", "parse_error"},
      {"{\"op\":\"lmhat\"", "parse_error"},
      {"\"just a string\"", "parse_error"},
      {"42", "parse_error"},
      {"[1,2,3]", "parse_error"},
      {"null", "parse_error"},
      {"{}", "bad_request"},                           // missing op
      {"{\"op\":42}", "bad_request"},                  // op not a string
      {"{\"op\":\"frobnicate\"}", "unknown_op"},
      {"{\"op\":\"lmhat\"}", "bad_request"},           // missing k/depth
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":1,\"bogus\":1}",
       "bad_request"},                                 // unknown field
      {"{\"op\":\"lmhat\",\"k\":1,\"depth\":5,\"n\":1}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":0,\"n\":1}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":-1}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":[]}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":\"ten\"}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4.5,\"depth\":5,\"n\":1}", "bad_request"},
      {"{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":1,\"id\":[1]}",
       "bad_request"},                                 // id must be scalar
      {"{\"op\":\"lm_estimate\"}", "bad_request"},     // missing topology
      {"{\"op\":\"lm_estimate\",\"topology\":\"atlantis\"}", "bad_request"},
      {"{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"budget\":32}",
       "bad_request"},                                 // 0 < budget < 64
      {"{\"op\":\"lm_estimate\",\"topology\":\"ARPA\","
       "\"group_sizes\":[99999]}",
       "bad_request"},                                 // m > sites
      {"{\"op\":\"lm_estimate\",\"topology\":\"ARPA\","
       "\"group_sizes\":[2],\"grid_points\":4}",
       "bad_request"},                                 // mutually exclusive
      {"{\"op\":\"reachability\"}", "bad_request"},
      {"{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":99999}",
       "bad_request"},
      {"{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":1,"
       "\"sources\":2}",
       "bad_request"},                                 // mutually exclusive
      {"{\"op\":\"metrics\",\"surprise\":1}", "bad_request"},
      {"{\"op\":\"healthz\",\"surprise\":1}", "bad_request"},
  };
  for (const auto& c : corpus) {
    const std::string response = svc.handle(c.line);
    EXPECT_EQ(error_code_of(response), c.expected_code)
        << "line: " << c.line << "\nresponse: " << response;
    EXPECT_EQ(response.find('\n'), std::string::npos)
        << "responses must be single-line";
  }
}

TEST(service_protocol, limits_surface_as_limit_exceeded) {
  query_service svc;
  const service_limits& lim = svc.limits();

  std::string big_n = "{\"op\":\"lmhat\",\"k\":2,\"depth\":3,\"n\":[";
  for (std::size_t i = 0; i <= lim.max_points; ++i) {
    if (i > 0) big_n += ',';
    big_n += '1';
  }
  big_n += "]}";
  EXPECT_EQ(error_code_of(svc.handle(big_n)), "limit_exceeded");

  EXPECT_EQ(error_code_of(svc.handle(
                "{\"op\":\"lmhat\",\"k\":1000,\"depth\":3,\"n\":1}")),
            "limit_exceeded");
  EXPECT_EQ(error_code_of(svc.handle(
                "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\","
                "\"sources\":1000000}")),
            "limit_exceeded");
  EXPECT_EQ(error_code_of(svc.handle(
                "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\","
                "\"threads\":64}")),
            "limit_exceeded");
  EXPECT_EQ(error_code_of(svc.handle(
                "{\"op\":\"reachability\",\"topology\":\"ARPA\","
                "\"budget\":999999999}")),
            "limit_exceeded");
}

TEST(service_protocol, lmhat_is_deterministic_across_instances) {
  const std::string req =
      "{\"op\":\"lmhat\",\"k\":4,\"depth\":5,\"n\":[1,10,100,1000]}";
  query_service a, b;
  const std::string r1 = a.handle(req);
  EXPECT_TRUE(is_ok(r1)) << r1;
  EXPECT_EQ(r1, a.handle(req));
  EXPECT_EQ(r1, b.handle(req));
}

TEST(service_protocol, lm_estimate_byte_identical_across_thread_counts) {
  const std::string base =
      "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"group_sizes\":"
      "[2,4,8,16],\"sources\":6,\"receiver_sets\":4,\"seed\":99";
  query_service svc;
  const std::string serial = svc.handle(base + ",\"threads\":1}");
  const std::string threaded = svc.handle(base + ",\"threads\":4}");
  EXPECT_TRUE(is_ok(serial)) << serial;
  EXPECT_EQ(serial, threaded)
      << "Monte-Carlo thread count leaked into the response bytes";
}

TEST(service_protocol, lm_estimate_includes_fit_and_respects_model) {
  query_service svc;
  const std::string distinct = svc.handle(
      "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\","
      "\"group_sizes\":[2,4,8,16,32],\"sources\":6,\"receiver_sets\":4}");
  ASSERT_TRUE(is_ok(distinct)) << distinct;
  const json::value doc = json::parse(distinct);
  const json::value* result = doc.get("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->get("fit"), nullptr) << distinct;
  EXPECT_GT(result->get("fit")->get("exponent")->as_number(), 0.0);
  ASSERT_NE(result->get("rows"), nullptr);
  EXPECT_EQ(result->get("rows")->items().size(), 5u);

  const std::string replacement = svc.handle(
      "{\"op\":\"lm_estimate\",\"topology\":\"ARPA\",\"model\":"
      "\"replacement\",\"group_sizes\":[2,4,8],\"sources\":4,"
      "\"receiver_sets\":4}");
  EXPECT_TRUE(is_ok(replacement)) << replacement;
  EXPECT_NE(distinct, replacement);
}

TEST(service_protocol, reachability_single_source_matches_repeat) {
  query_service svc;
  const std::string req =
      "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":3}";
  const std::string r1 = svc.handle(req);
  ASSERT_TRUE(is_ok(r1)) << r1;
  EXPECT_EQ(r1, svc.handle(req));
  const json::value doc = json::parse(r1);
  const json::value* result = doc.get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->get("total_sites")->as_number(), 0.0);
  EXPECT_EQ(result->get("s")->items().size(),
            result->get("t")->items().size());
}

TEST(service_protocol, id_is_echoed_verbatim) {
  query_service svc;
  const std::string with_string_id = svc.handle(
      "{\"op\":\"healthz\",\"id\":\"req-17\"}");
  EXPECT_NE(with_string_id.find("\"id\":\"req-17\""), std::string::npos)
      << with_string_id;
  const std::string with_number_id =
      svc.handle("{\"op\":\"frobnicate\",\"id\":7}");
  EXPECT_NE(with_number_id.find("\"id\":7"), std::string::npos)
      << with_number_id;
}

TEST(service_protocol, metrics_and_healthz_report_without_stats_source) {
  query_service svc;
  const std::string health = svc.handle("{\"op\":\"healthz\"}");
  ASSERT_TRUE(is_ok(health)) << health;
  const json::value doc = json::parse(health);
  EXPECT_EQ(doc.get("result")->get("status")->as_string(), "ok");
  EXPECT_EQ(doc.get("result")->get("accepted")->as_number(), 0.0);

  const std::string metrics = svc.handle("{\"op\":\"metrics\"}");
  ASSERT_TRUE(is_ok(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"server\""), std::string::npos);
  EXPECT_NE(metrics.find("\"metrics\""), std::string::npos);
}

// --- batch envelope ----------------------------------------------------

TEST(batch_envelope, subop_documents_match_standalone_responses) {
  query_service svc;
  const std::string sub_a = "{\"op\":\"lmhat\",\"k\":3,\"depth\":4,\"n\":[1,10],\"id\":\"a\"}";
  const std::string sub_b =
      "{\"op\":\"reachability\",\"topology\":\"ARPA\",\"source\":2,"
      "\"id\":\"b\"}";
  const std::string sub_c = "{\"op\":\"nosuch\",\"id\":\"c\"}";
  const std::string batch =
      "{\"op\":\"batch\",\"id\":\"env\",\"ops\":[" + sub_a + "," + sub_b +
      "," + sub_c + "]}";

  const json::value doc = json::parse(svc.handle(batch));
  ASSERT_TRUE(doc.get("ok")->as_bool());
  EXPECT_EQ(doc.get("id")->as_string(), "env");
  const json::value* result = doc.get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get("count")->as_number(), 3.0);
  EXPECT_EQ(result->get("ok_count")->as_number(), 2.0);
  EXPECT_EQ(result->get("error_count")->as_number(), 1.0);
  const std::vector<json::value>& results = result->get("results")->items();
  ASSERT_EQ(results.size(), 3u);
  // Each slot is byte-identical to the standalone response line.
  EXPECT_EQ(json::dump_compact(results[0]), svc.handle(sub_a));
  EXPECT_EQ(json::dump_compact(results[1]), svc.handle(sub_b));
  EXPECT_EQ(json::dump_compact(results[2]), svc.handle(sub_c));
  EXPECT_FALSE(results[2].get("ok")->as_bool());
}

TEST(batch_envelope, rejects_nesting_missing_ops_and_oversize) {
  query_service svc;
  const std::string nested =
      "{\"op\":\"batch\",\"ops\":[{\"op\":\"batch\",\"ops\":[]}]}";
  const json::value doc = json::parse(svc.handle(nested));
  ASSERT_TRUE(doc.get("ok")->as_bool());  // envelope ok, slot failed
  const std::vector<json::value>& results =
      doc.get("result")->get("results")->items();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].get("ok")->as_bool());
  EXPECT_EQ(results[0].get("error")->get("code")->as_string(), "bad_request");

  const json::value missing = json::parse(svc.handle("{\"op\":\"batch\"}"));
  EXPECT_FALSE(missing.get("ok")->as_bool());
  const json::value empty =
      json::parse(svc.handle("{\"op\":\"batch\",\"ops\":[]}"));
  EXPECT_FALSE(empty.get("ok")->as_bool());

  std::string big = "{\"op\":\"batch\",\"ops\":[";
  for (std::size_t i = 0; i <= svc.limits().max_batch_ops; ++i) {
    if (i > 0) big += ",";
    big += "{\"op\":\"healthz\"}";
  }
  big += "]}";
  const json::value capped = json::parse(svc.handle(big));
  EXPECT_FALSE(capped.get("ok")->as_bool());
  EXPECT_EQ(capped.get("error")->get("code")->as_string(), "limit_exceeded");
}

}  // namespace
}  // namespace mcast::service
