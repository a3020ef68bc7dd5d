// Per-request structured access log (JSONL, schema mcast-access-log/1).
//
// One line per service request, written when the server finishes the
// response: op, topology key, the latency split (queue wait / compute /
// serialize / write), byte counts, outcome, and the degraded /
// shed / chaos flags. The sink is process-global and off by default;
// `access_log_enable(path, slow_ns)` opens it and sets the slow-query
// threshold (entries at or over it are flagged "slow": true and counted
// in svc.access.slow).
//
// Lifecycle mirrors how a request flows: the server worker thread calls
// `access_begin(trace_id)` before dispatching, the service layers fill in
// fields through `access_current()` (thread-local — only the thread that
// began the entry may annotate), and the server calls `access_finish()`
// after the response bytes are written.
// When the sink is closed every call is a cheap no-op, and responses are
// byte-identical either way: the log observes a request, never alters it.
//
// With MCAST_OBS_DISABLED the stateful API collapses to no-ops;
// `access_log_line` (the pure serializer) stays available.
#pragma once

#include <cstdint>
#include <string>

namespace mcast::obs {

inline constexpr const char* k_access_log_schema = "mcast-access-log/1";

/// One request's record. Filled incrementally; see header comment.
struct access_entry {
  std::uint64_t trace_id = 0;  ///< server-minted id (see trace_request_id)
  std::string token;           ///< client "trace" token, "" when absent
  std::string op;              ///< request op, "" if the line never parsed
  std::string topology;        ///< topology key, "" for non-topology ops
  /// Time the connection waited in the server's accept queue for a
  /// worker; set on the connection's first request, 0 on later ones.
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t compute_ns = 0;     ///< handler time (parse + dispatch)
  std::uint64_t serialize_ns = 0;   ///< response document -> bytes
  std::uint64_t write_ns = 0;       ///< socket write of the response line
  std::uint64_t total_ns = 0;       ///< begin -> finish wall time
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::string outcome;          ///< "ok" or the typed error code
  bool degraded = false;
  bool shed = false;
  bool chaos = false;  ///< a chaos fault touched this connection's request
};

/// Serializes one entry as a single JSON line (no trailing newline).
/// `slow` marks entries at or over the configured threshold. Pure; also
/// available under MCAST_OBS_DISABLED.
std::string access_log_line(const access_entry& e, bool slow = false);

#if defined(MCAST_OBS_DISABLED)

inline void access_log_enable(const std::string&, std::uint64_t = 0) {}
inline void access_log_disable() noexcept {}
inline bool access_log_enabled() noexcept { return false; }
inline bool access_begin(std::uint64_t) noexcept { return false; }
inline access_entry* access_current() noexcept { return nullptr; }
inline void access_finish() noexcept {}

#else

/// Opens (truncates) the JSONL sink at `path`; entries whose total_ns is
/// >= `slow_ns` are flagged slow (0 disables the threshold). Throws
/// std::runtime_error if the file cannot be opened.
void access_log_enable(const std::string& path, std::uint64_t slow_ns = 0);

/// Flushes and closes the sink; subsequent calls become no-ops.
void access_log_disable();
bool access_log_enabled() noexcept;

/// Starts this thread's entry for one request. Returns false (and stays
/// inactive) when the sink is closed.
bool access_begin(std::uint64_t trace_id);

/// The in-flight entry begun on this thread, or nullptr when none.
access_entry* access_current() noexcept;

/// Writes the entry begun on this thread and deactivates it.
void access_finish();

#endif  // MCAST_OBS_DISABLED

}  // namespace mcast::obs
