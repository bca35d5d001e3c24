// ShardedCache: the one sharded LRU with single-flight leases under both
// service caches (PlanCache and SharedResultCache).
//
// N-way sharding (per-shard mutex, LRU list and byte budget) keeps
// unrelated keys from contending. Each entry is charged its `bytes`; a
// shard evicts least-recently-used entries past budget/shards, and an
// entry bigger than a whole shard's budget is never cached (counted as
// oversized). Single-flight coalescing runs on a lease protocol:
//
//   auto r = cache.Acquire(key, /*may_wait=*/...);
//   switch (r.kind) {
//     case kHit:    /* use r.value */
//     case kLeased: /* compute, then Publish(key, value) or
//                      Abort(key, status) exactly once */
//     case kBusy:   /* another holder is computing (or released the key
//                      with no answer); compute locally, do not publish */
//   }
//
// may_wait=true blocks a miss on another holder's flight and returns its
// outcome. Callers pass may_wait only while holding no leases of their
// own, which makes the wait graph acyclic — a lease holder never blocks —
// so the protocol cannot deadlock.
//
// A flight's outcome decides what its waiters get and how they count:
//   - Publish(value): kHit with the value; counted as coalesced. The
//     value reaches waiters even when it is too big to cache.
//   - Abort(error): kBusy carrying the holder's error; counted as
//     coalesced — the waiter was answered, with the failure.
//   - Abort(OK): the lease is released with no answer; kBusy, counted
//     as busy, and the waiter recomputes.
//
// Header-only, so the result cache's library does not link the service.

#ifndef ETLOPT_SERVICE_SHARDED_CACHE_H_
#define ETLOPT_SERVICE_SHARDED_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace etlopt {

/// Point-in-time counters of one cache. Monotonic except the
/// entries/bytes gauges.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // includes coalesced waits and busy probes
  uint64_t coalesced = 0;   // misses answered by another holder's flight
  uint64_t busy = 0;        // misses computed locally (holder in flight)
  uint64_t insertions = 0;
  uint64_t evictions = 0;   // entries dropped by the LRU byte budget
  uint64_t oversized = 0;   // entries too large to cache at all
  uint64_t aborted = 0;     // leases released without a publication
  size_t entries = 0;
  size_t bytes = 0;
  size_t byte_budget = 0;
  size_t shards = 0;

  double hit_rate() const {
    uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// `Value` carries its cache charge in a `bytes` member; `Hash` picks the
/// shard from the low bits of its result.
template <typename Key, typename Value, typename Hash>
class ShardedCache {
 public:
  using Entry = std::shared_ptr<const Value>;

  enum class Outcome : int {
    kHit = 0,     // value returned (cached, or coalesced from a holder)
    kLeased = 1,  // caller owns the flight: Publish or Abort exactly once
    kBusy = 2,    // no value: compute locally, do not publish
  };

  struct AcquireResult {
    Outcome kind = Outcome::kBusy;
    Entry value;              // kHit only
    bool coalesced = false;   // answered by another holder's flight
    Status status;            // the holder's error, when it failed
  };

  /// `shards` is rounded up to a power of two and clamped to >= 1.
  ShardedCache(size_t shards, size_t byte_budget) {
    size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_mask_ = n - 1;
    shard_budget_ = byte_budget / n;
  }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Probes `key`. On a miss with no flight in progress the caller is
  /// granted the lease (kLeased). On a miss with a flight in progress:
  /// blocks for the holder's outcome when `may_wait` (see the file
  /// comment), else returns kBusy at once.
  AcquireResult Acquire(const Key& key, bool may_wait) {
    Shard& shard = ShardFor(key);
    std::shared_ptr<Flight> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        ++shard.counts.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return {Outcome::kHit, it->second->second, false, {}};
      }
      ++shard.counts.misses;
      auto fit = shard.flights.find(key);
      if (fit == shard.flights.end()) {
        shard.flights.emplace(key, std::make_shared<Flight>());
        return {Outcome::kLeased, nullptr, false, {}};
      }
      if (!may_wait) {
        ++shard.counts.busy;
        return {Outcome::kBusy, nullptr, false, {}};
      }
      flight = fit->second;
    }
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    const bool answered = flight->value != nullptr || !flight->status.ok();
    {
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      ++(answered ? shard.counts.coalesced : shard.counts.busy);
    }
    if (flight->value == nullptr) {
      return {Outcome::kBusy, nullptr, answered, flight->status};
    }
    return {Outcome::kHit, flight->value, true, {}};
  }

  /// Completes the caller's lease: inserts under the byte budget and
  /// hands the value to every waiter either way.
  void Publish(const Key& key, Entry value) {
    Shard& shard = ShardFor(key);
    std::shared_ptr<Flight> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      flight = TakeFlight(shard, key);
      InsertLocked(shard, key, value);
    }
    Finish(flight, std::move(value), Status::OK());
  }

  /// Releases the caller's lease without a value. Waiters wake with
  /// kBusy carrying `status`.
  void Abort(const Key& key, Status status) {
    Shard& shard = ShardFor(key);
    std::shared_ptr<Flight> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      flight = TakeFlight(shard, key);
      ++shard.counts.aborted;
    }
    Finish(flight, nullptr, std::move(status));
  }

  /// Plain lookup; counts a hit or a miss, never waits, never leases.
  Entry Lookup(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.counts.misses;
      return nullptr;
    }
    ++shard.counts.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Unconditional insert, outside any flight (warm loading).
  void Insert(const Key& key, Entry value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, key, std::move(value));
  }

  CacheStats Stats() const {
    CacheStats stats;
    stats.shards = shards_.size();
    stats.byte_budget = shard_budget_ * shards_.size();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      const CacheStats& c = shard->counts;
      stats.hits += c.hits;
      stats.misses += c.misses;
      stats.coalesced += c.coalesced;
      stats.busy += c.busy;
      stats.insertions += c.insertions;
      stats.evictions += c.evictions;
      stats.oversized += c.oversized;
      stats.aborted += c.aborted;
      stats.entries += shard->lru.size();
      stats.bytes += c.bytes;
    }
    return stats;
  }

  /// All live entries, most-recently-used first within each shard.
  std::vector<Entry> Snapshot() const {
    std::vector<Entry> out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& item : shard->lru) out.push_back(item.second);
    }
    return out;
  }

  /// Drops every entry; counters and in-flight leases stay.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
      shard->counts.bytes = 0;
    }
  }

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    Entry value;  // null unless published
  };

  struct Shard {
    mutable std::mutex mu;
    // front = most recently used.
    std::list<std::pair<Key, Entry>> lru;
    std::unordered_map<Key, typename decltype(lru)::iterator, Hash> index;
    std::unordered_map<Key, std::shared_ptr<Flight>, Hash> flights;
    // This shard's counters; `bytes` is its live charge, `entries` unused.
    CacheStats counts;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[Hash()(key) & shard_mask_];
  }

  // Requires shard.mu held.
  void InsertLocked(Shard& shard, const Key& key, Entry value) {
    if (value->bytes > shard_budget_) {
      ++shard.counts.oversized;
      return;
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.counts.bytes -= it->second->second->bytes;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.counts.bytes += value->bytes;
    shard.lru.emplace_front(key, std::move(value));
    shard.index[key] = shard.lru.begin();
    ++shard.counts.insertions;
    while (shard.counts.bytes > shard_budget_ && shard.lru.size() > 1) {
      const auto& victim = shard.lru.back();
      shard.counts.bytes -= victim.second->bytes;
      shard.index.erase(victim.first);
      shard.lru.pop_back();
      ++shard.counts.evictions;
    }
  }

  // Requires shard.mu held. Detaches the flight for `key` (if any).
  static std::shared_ptr<Flight> TakeFlight(Shard& shard, const Key& key) {
    auto it = shard.flights.find(key);
    if (it == shard.flights.end()) return nullptr;
    std::shared_ptr<Flight> flight = std::move(it->second);
    shard.flights.erase(it);
    return flight;
  }

  static void Finish(const std::shared_ptr<Flight>& flight, Entry value,
                     Status status) {
    if (flight == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->done = true;
      flight->value = std::move(value);
      flight->status = std::move(status);
    }
    flight->cv.notify_all();
  }

  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
};

}  // namespace etlopt

#endif  // ETLOPT_SERVICE_SHARDED_CACHE_H_
