#include "topo/cache.hpp"

#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "graph/components.hpp"
#include "obs/metrics.hpp"
#include "topo/catalog.hpp"

namespace mcast {

graph build_catalog_topology(const std::string& name, std::uint64_t seed,
                             node_id budget) {
  network_entry entry = find_network(name);
  if (budget > 0) {
    entry = scaled_networks(std::vector<network_entry>{entry}, budget)[0];
  }
  return largest_component(entry.build(seed));
}

std::size_t topology_key_hash::operator()(
    const topology_key& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.name);
  h ^= std::hash<std::uint64_t>{}(k.seed) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  h ^= std::hash<std::uint64_t>{}(k.budget) + 0x9e3779b97f4a7c15ULL +
       (h << 6) + (h >> 2);
  return h;
}

topology_cache::topology_cache(std::size_t capacity) : capacity_(capacity) {
  expects(capacity >= 1, "topology_cache: capacity must be >= 1");
}

std::shared_ptr<const graph> topology_cache::get(const std::string& name,
                                                 std::uint64_t seed,
                                                 node_id budget) {
  const key k{name, seed, budget};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto it = entries_.find(k); it != entries_.end()) {
      it->second.last_use = ++tick_;
      ++stats_.hits;
      obs::add(obs::counter::topo_cache_hits);
      return it->second.g;
    }
    if (building_.find(k) != building_.end()) {
      // Another thread is generating this exact graph; wait for it rather
      // than duplicating seconds of generator work.
      built_.wait(lock);
      continue;
    }
    break;
  }
  building_.emplace(k, true);
  ++stats_.misses;
  obs::add(obs::counter::topo_cache_misses);
  lock.unlock();

  std::shared_ptr<const graph> built;
  const auto start = std::chrono::steady_clock::now();
  try {
    built = std::make_shared<const graph>(
        build_catalog_topology(name, seed, budget));
  } catch (...) {
    // Release the claim so a waiter can retry (and hit the same,
    // deterministic failure itself).
    lock.lock();
    building_.erase(k);
    built_.notify_all();
    throw;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  obs::record(
      obs::histogram::topo_cache_build_ns,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));

  lock.lock();
  entries_[k] = entry{built, ++tick_};
  evict_locked();
  obs::gauge_max(obs::gauge::topo_cache_peak_entries, entries_.size());
  building_.erase(k);
  built_.notify_all();
  return built;
}

void topology_cache::evict_locked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    entries_.erase(victim);
    ++stats_.evictions;
    obs::add(obs::counter::topo_cache_evictions);
  }
}

void topology_cache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::size_t topology_cache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

topology_cache::cache_stats topology_cache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

topology_cache& shared_topology_cache() {
  static topology_cache cache(16);
  return cache;
}

}  // namespace mcast
