// Content-keyed topology cache — build every catalog graph at most once.
//
// Both the experiment engine (context::topology) and the query service
// (service/query_service.hpp) resolve catalog topologies as a pure function
// of (name, seed, budget):
//
//   budget == 0  -> find_network(name).build(seed)  (native parameters)
//   budget  > 0  -> scaled_networks({find_network(name)}, budget)[0]
//                   .build(seed)  (the smoke-tier shrink rule)
//
// followed by largest_component(), which is what every consumer traverses.
// Because the result is deterministic in the key, memoizing it cannot
// change any output byte — it only skips generator work (the Internet
// entry alone takes seconds at native size). Entries are shared immutable
// CSR graphs handed out as shared_ptr<const graph>, so an evicted graph
// stays alive for whoever is still measuring on it.
//
// Unlike spt_cache (per-worker by design), this cache IS thread-safe: the
// service's workers and the lab's sweep workers hit one shared
// instance. Concurrent misses on the same key are coalesced — one thread
// builds while the others wait — and a build failure is rethrown to every
// waiter. Bounded LRU over completed entries; obs counters under
// `topo_cache.*` record hits/misses/evictions and build latency.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <unordered_map>

#include "graph/graph.hpp"

namespace mcast {

/// The identity of one cached topology: the build rule is a pure function
/// of this triple.
struct topology_key {
  std::string name;
  std::uint64_t seed = 0;
  node_id budget = 0;
  friend bool operator==(const topology_key&, const topology_key&) = default;
};

struct topology_key_hash {
  std::size_t operator()(const topology_key& k) const noexcept;
};

/// The canonical build rule behind every cache entry: find_network(name),
/// scaled to `budget` nodes when budget > 0, built at `seed`, reduced to
/// its largest component. Throws std::invalid_argument for unknown names
/// and budgets scaled_networks rejects (0 < budget < 64).
graph build_catalog_topology(const std::string& name, std::uint64_t seed,
                             node_id budget);

class topology_cache {
 public:
  struct cache_stats {
    std::uint64_t hits = 0;        ///< includes waits coalesced onto a build
    std::uint64_t misses = 0;      ///< builds actually performed
    std::uint64_t evictions = 0;   ///< completed entries displaced when full
  };

  /// Caches at most `capacity` built graphs (>= 1).
  explicit topology_cache(std::size_t capacity = 16);

  /// The largest component of the catalog topology `name` built at `seed`,
  /// scaled to `budget` nodes when budget > 0 (see header comment for the
  /// exact rule). Throws std::invalid_argument for unknown names and
  /// budget values scaled_networks rejects (0 < budget < 64).
  std::shared_ptr<const graph> get(const std::string& name,
                                   std::uint64_t seed, node_id budget = 0);

  /// Drops every completed entry (in-flight builds finish and re-insert).
  void clear();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  cache_stats stats() const;

 private:
  using key = topology_key;
  using key_hash = topology_key_hash;
  struct entry {
    std::shared_ptr<const graph> g;
    std::uint64_t last_use = 0;
  };

  void evict_locked();

  mutable std::mutex mutex_;
  std::condition_variable built_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;  // LRU clock
  std::unordered_map<key, entry, key_hash> entries_;
  /// Keys currently being built by some thread (misses coalesce on these).
  std::unordered_map<key, bool, key_hash> building_;
  cache_stats stats_;
};

/// The process-wide instance shared by the lab engine and the service.
/// Capacity 16 — the full paper suite (8 networks x {native, one scaled
/// tier}) fits without eviction.
topology_cache& shared_topology_cache();

}  // namespace mcast
