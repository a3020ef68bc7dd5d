// Small fork/exec harness for tests that drive the mcast_lab binary as a
// real process (exit-code audit, serve shutdown), plus per-process temp
// file names. POSIX-only, like the rest of the networking stack.
#pragma once

#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace mcast::testproc {

struct spawned {
  pid_t pid = -1;
  int stdout_fd = -1;
  int stderr_fd = -1;
};

/// fork/execs `argv[0]` with the given arguments; stdout and stderr come
/// back as pipe read ends. argv excludes the program name.
inline spawned spawn(const std::string& binary,
                     const std::vector<std::string>& argv) {
  int out_pipe[2], err_pipe[2];
  if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) return {};
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    std::vector<char*> args;
    args.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    ::execv(binary.c_str(), args.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  spawned s;
  s.pid = pid;
  s.stdout_fd = out_pipe[0];
  s.stderr_fd = err_pipe[0];
  return s;
}

/// Reads until EOF (call after the writer side is done or closed).
inline std::string drain_fd(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || (n < 0 && errno != EINTR)) {
      break;
    }
  }
  return out;
}

struct run_result {
  int exit_code = -1;       ///< -1 when killed by a signal
  int term_signal = 0;
  std::string out;
  std::string err;
};

/// Waits for the child and collects both streams.
inline run_result finish(const spawned& s) {
  run_result r;
  r.out = drain_fd(s.stdout_fd);
  r.err = drain_fd(s.stderr_fd);
  ::close(s.stdout_fd);
  ::close(s.stderr_fd);
  int status = 0;
  while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) r.term_signal = WTERMSIG(status);
  return r;
}

/// Convenience: run to completion and collect everything.
inline run_result run(const std::string& binary,
                      const std::vector<std::string>& argv) {
  return finish(spawn(binary, argv));
}

/// Reads from `fd` (with a deadline) until `needle` appears in the
/// accumulated text; returns everything read so far.
inline std::string read_until(int fd, const std::string& needle,
                              std::chrono::milliseconds deadline) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  std::string text;
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (text.find(needle) == std::string::npos &&
         std::chrono::steady_clock::now() < until) {
    char buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return text;
}

/// `name` under the gtest temp dir, tagged with this process's pid before
/// its extension ("good.expect" -> "good.<pid>.expect"), so test processes
/// running at the same time never write the same file.
inline std::string temp_path(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  std::string tag = ".";
  tag += std::to_string(::getpid());
  const std::size_t dot = name.rfind('.');
  if (dot == std::string::npos) return dir + name + tag;
  return dir + name.substr(0, dot) + tag + name.substr(dot);
}

}  // namespace mcast::testproc
