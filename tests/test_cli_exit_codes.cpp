// Exit-code audit for the mcast_lab CLI and the svc_load bench driver,
// against the real binaries: every error path must return non-zero AND
// say why on stderr; the happy paths stay 0. The scripts and CI jobs that
// chain `mcast_lab run && mcast_lab validate` depend on these codes.
// MCAST_LAB_BIN and SVC_LOAD_BIN come from CMake.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "proc_util.hpp"

namespace mcast::lab {
namespace {

using testproc::finish;
using testproc::read_until;
using testproc::run;
using testproc::run_result;
using testproc::spawn;
using testproc::spawned;

void expect_failure(const std::vector<std::string>& argv, int expected_code) {
  const run_result r = run(MCAST_LAB_BIN, argv);
  std::string joined;
  for (const std::string& a : argv) joined += a + " ";
  EXPECT_EQ(r.exit_code, expected_code) << "argv: " << joined
                                        << "\nstderr: " << r.err;
  EXPECT_FALSE(r.err.empty())
      << "error exits must explain themselves on stderr; argv: " << joined;
}

TEST(cli_exit_codes, no_arguments_is_an_error) {
  const run_result r = run(MCAST_LAB_BIN, {});
  EXPECT_EQ(r.exit_code, 1);
  // Usage goes to stdout for no-args (it doubles as the help text).
  EXPECT_FALSE(r.out.empty());
}

TEST(cli_exit_codes, help_is_success) {
  EXPECT_EQ(run(MCAST_LAB_BIN, {"--help"}).exit_code, 0);
  EXPECT_EQ(run(MCAST_LAB_BIN, {"help"}).exit_code, 0);
}

TEST(cli_exit_codes, unknown_command) {
  expect_failure({"frobnicate"}, 1);
}

TEST(cli_exit_codes, run_unknown_experiment) {
  expect_failure({"run", "no_such_experiment"}, 1);
}

TEST(cli_exit_codes, run_without_ids) {
  expect_failure({"run"}, 1);
}

TEST(cli_exit_codes, run_bad_param_syntax) {
  expect_failure({"run", "fig1", "--param", "no-equals-sign"}, 1);
}

TEST(cli_exit_codes, run_bad_scale) {
  expect_failure({"run", "fig1", "--scale", "banana"}, 1);
}

TEST(cli_exit_codes, run_unknown_option) {
  expect_failure({"run", "fig1", "--frobnicate"}, 1);
}

TEST(cli_exit_codes, run_unwritable_manifest_dir_fails_fast) {
  // /dev/null is a file, so nothing can be created beneath it. This must
  // fail before any experiment runs (hence the short test timeout).
  expect_failure({"run", "fig1", "--manifest-dir", "/dev/null/x"}, 1);
}

TEST(cli_exit_codes, run_unwritable_out_dir_fails_fast) {
  expect_failure({"run", "fig1", "--out-dir", "/dev/null/x"}, 1);
}

TEST(cli_exit_codes, describe_unknown_experiment) {
  expect_failure({"describe", "no_such_experiment"}, 1);
}

TEST(cli_exit_codes, describe_without_id) {
  expect_failure({"describe"}, 1);
}

TEST(cli_exit_codes, list_unknown_flag) {
  expect_failure({"list", "--frobnicate"}, 1);
}

TEST(cli_exit_codes, validate_missing_directory) {
  expect_failure({"validate", "/no/such/directory"}, 2);
}

TEST(cli_exit_codes, validate_empty_directory) {
  char tmpl[] = "/tmp/mcast_validate_emptyXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  expect_failure({"validate", tmpl}, 2);
  ::rmdir(tmpl);
}

TEST(cli_exit_codes, validate_without_directory) {
  expect_failure({"validate"}, 1);
}

TEST(cli_exit_codes, serve_bad_flags) {
  expect_failure({"serve", "--port=notaport"}, 1);
  expect_failure({"serve", "--port=99999"}, 1);
  expect_failure({"serve", "--threads=0"}, 1);
  expect_failure({"serve", "--queue=0"}, 1);
  expect_failure({"serve", "--frobnicate"}, 1);
}

TEST(cli_exit_codes, query_bad_flags) {
  expect_failure({"query"}, 1);                       // --port required
  expect_failure({"query", "--port=0"}, 1);
  expect_failure({"query", "--frobnicate"}, 1);
}

TEST(cli_exit_codes, query_connection_refused_is_3) {
  // Port 1 on loopback is essentially never listening in CI; a refused
  // connect after retries is its own exit code (docs/resilience.md) so
  // scripts can tell "daemon not up" from "daemon said no".
  expect_failure({"query", "--port=1", "--retries=2", "--backoff-ms=0",
                  "{\"op\":\"healthz\"}"},
                 3);
}

TEST(cli_exit_codes, query_timeout_is_4) {
  // A listener that accepts (from the kernel backlog) but never answers:
  // the query must give up at --timeout-ms per attempt and exit 4.
  const net::listen_socket mute = net::listen_loopback(0);
  expect_failure({"query", "--port=" + std::to_string(mute.port),
                  "--timeout-ms=200", "--retries=1", "--backoff-ms=0",
                  "{\"op\":\"healthz\"}"},
                 4);
}

TEST(cli_exit_codes, query_typed_server_error_is_2) {
  // A real server answering a typed error line: the response is printed
  // (stdout is still useful) but the exit code says a request failed.
  const spawned server =
      spawn(MCAST_LAB_BIN, {"serve", "--port=0", "--threads=1", "--queue=4"});
  ASSERT_GT(server.pid, 0);
  const std::string banner = read_until(server.stderr_fd, "listening on",
                                        std::chrono::milliseconds(15000));
  const std::string key = "listening on 127.0.0.1:";
  const std::size_t at = banner.find(key);
  ASSERT_NE(at, std::string::npos) << banner;
  const std::string port = std::to_string(
      std::strtoul(banner.c_str() + at + key.size(), nullptr, 10));

  const run_result bad = run(
      MCAST_LAB_BIN, {"query", "--port=" + port, "{\"op\":\"frobnicate\"}"});
  EXPECT_EQ(bad.exit_code, 2) << bad.err;
  EXPECT_NE(bad.out.find("\"ok\":false"), std::string::npos) << bad.out;
  EXPECT_FALSE(bad.err.empty());

  // Sanity: the same server answers a good request with exit 0.
  const run_result good =
      run(MCAST_LAB_BIN, {"query", "--port=" + port, "{\"op\":\"healthz\"}"});
  EXPECT_EQ(good.exit_code, 0) << good.err;

  ASSERT_EQ(::kill(server.pid, SIGTERM), 0);
  const run_result r = finish(server);
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(cli_exit_codes, svc_load_bad_flag_is_1) {
  const run_result r = run(SVC_LOAD_BIN, {"--frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_FALSE(r.err.empty());
}

TEST(cli_exit_codes, svc_load_out_naming_a_file_is_2) {
  // --out names the artifact directory. A regular file there is an I/O
  // failure with its own exit code, reported before any load runs.
  const std::string file = testproc::temp_path("svc_load_out.txt");
  { std::ofstream(file) << "not a directory\n"; }
  const run_result r =
      run(SVC_LOAD_BIN, {"--out=" + file, "--connections=1", "--requests=1",
                         "--skip-overload-probe"});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_NE(r.err.find("not an existing directory"), std::string::npos)
      << r.err;
  EXPECT_EQ(r.term_signal, 0) << "svc_load must exit, not abort";
  std::remove(file.c_str());
}

TEST(cli_exit_codes, list_succeeds) {
  const run_result r = run(MCAST_LAB_BIN, {"list"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("fig1"), std::string::npos);
}

}  // namespace
}  // namespace mcast::lab
