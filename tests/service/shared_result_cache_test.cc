#include "service/shared_result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "schema/value.h"

namespace etlopt {
namespace {

std::shared_ptr<const CachedSubgraphResult> Entry(size_t bytes,
                                                  size_t n_rows = 0) {
  auto entry = std::make_shared<CachedSubgraphResult>();
  for (size_t i = 0; i < n_rows; ++i) {
    entry->rows.push_back(Record({Value::Int(static_cast<int64_t>(i))}));
  }
  entry->subtree_rows_out = {n_rows};
  entry->bytes = bytes;
  return entry;
}

TEST(ApproxRowsBytesTest, GrowsWithRowsAndStringPayload) {
  std::vector<Record> empty;
  std::vector<Record> ints = {Record({Value::Int(1), Value::Int(2)})};
  std::vector<Record> strings = {
      Record({Value::String(std::string(1000, 'x')), Value::Int(2)})};
  EXPECT_LT(ApproxRowsBytes(empty), ApproxRowsBytes(ints));
  EXPECT_GT(ApproxRowsBytes(strings), ApproxRowsBytes(ints) + 900);
  // Deterministic: the byte budget must behave identically run to run.
  EXPECT_EQ(ApproxRowsBytes(strings), ApproxRowsBytes(strings));
}

TEST(SharedResultCacheTest, LeaseThenPublishThenHit) {
  SharedResultCache cache;
  auto first = cache.Acquire(1, /*may_wait=*/true);
  EXPECT_EQ(first.kind, SharedResultCache::Outcome::kLeased);
  cache.Publish(1, Entry(100, 3));
  auto second = cache.Acquire(1, /*may_wait=*/true);
  ASSERT_EQ(second.kind, SharedResultCache::Outcome::kHit);
  ASSERT_NE(second.value, nullptr);
  EXPECT_EQ(second.value->rows.size(), 3u);
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SharedResultCacheTest, NonWaitingProbeOfHeldLeaseIsBusy) {
  SharedResultCache cache;
  auto lease = cache.Acquire(5, /*may_wait=*/false);
  ASSERT_EQ(lease.kind, SharedResultCache::Outcome::kLeased);
  // A second runner at the same cut point, itself holding a lease
  // elsewhere, must not block: it recomputes locally.
  auto probe = cache.Acquire(5, /*may_wait=*/false);
  EXPECT_EQ(probe.kind, SharedResultCache::Outcome::kBusy);
  EXPECT_EQ(cache.Stats().busy, 1u);
  cache.Publish(5, Entry(10));
  EXPECT_EQ(cache.Acquire(5, false).kind, SharedResultCache::Outcome::kHit);
}

TEST(SharedResultCacheTest, EvictsLeastRecentlyUsedPastByteBudget) {
  SharedResultCacheOptions options;
  options.shards = 1;  // deterministic single LRU
  options.byte_budget = 300;
  SharedResultCache cache(options);
  for (uint64_t sig = 1; sig <= 3; ++sig) {
    ASSERT_EQ(cache.Acquire(sig, true).kind,
              SharedResultCache::Outcome::kLeased);
    cache.Publish(sig, Entry(100, sig));
  }
  EXPECT_EQ(cache.Stats().entries, 3u);
  // Touch 1 so 2 is the LRU victim.
  ASSERT_NE(cache.Lookup(1), nullptr);
  ASSERT_EQ(cache.Acquire(4, true).kind, SharedResultCache::Outcome::kLeased);
  cache.Publish(4, Entry(100, 4));
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 300u);
  EXPECT_EQ(cache.Lookup(2), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_NE(cache.Lookup(4), nullptr);
}

TEST(SharedResultCacheTest, OversizedPublishSkipsCacheButServesWaiters) {
  SharedResultCacheOptions options;
  options.shards = 1;
  options.byte_budget = 100;
  SharedResultCache cache(options);
  ASSERT_EQ(cache.Acquire(1, true).kind, SharedResultCache::Outcome::kLeased);

  std::atomic<bool> waiter_hit{false};
  std::thread waiter([&] {
    auto r = cache.Acquire(1, /*may_wait=*/true);
    waiter_hit = r.kind == SharedResultCache::Outcome::kHit &&
                 r.value != nullptr && r.value->bytes == 101;
  });
  // Give the waiter time to park on the flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.Publish(1, Entry(101));
  waiter.join();

  EXPECT_TRUE(waiter_hit.load());
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(SharedResultCacheTest, ReplacementRecharges) {
  SharedResultCacheOptions options;
  options.shards = 1;
  options.byte_budget = 1000;
  SharedResultCache cache(options);
  ASSERT_EQ(cache.Acquire(1, true).kind, SharedResultCache::Outcome::kLeased);
  cache.Publish(1, Entry(100, 1));
  ASSERT_EQ(cache.Lookup(1)->rows.size(), 1u);
  // A later run can re-lease after eviction; here we force a replace via
  // a fresh lease cycle on the same signature after clearing.
  cache.Clear();
  ASSERT_EQ(cache.Acquire(1, true).kind, SharedResultCache::Outcome::kLeased);
  cache.Publish(1, Entry(250, 2));
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 250u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(cache.Lookup(1)->rows.size(), 2u);
}

TEST(SharedResultCacheTest, SingleFlightCoalescesConcurrentAcquires) {
  SharedResultCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> leased{0};
  std::atomic<int> hits{0};
  std::vector<std::shared_ptr<const CachedSubgraphResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto r = cache.Acquire(7, /*may_wait=*/true);
      if (r.kind == SharedResultCache::Outcome::kLeased) {
        leased.fetch_add(1);
        // Widen the race window so waiters really do pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cache.Publish(7, Entry(64, 9));
        r = cache.Acquire(7, true);
      }
      if (r.kind == SharedResultCache::Outcome::kHit) {
        hits.fetch_add(1);
        results[i] = r.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The single-flight guarantee: one lease, everyone shares its answer.
  EXPECT_EQ(leased.load(), 1);
  EXPECT_EQ(hits.load(), kThreads);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i], results[0]);  // same shared_ptr, not a copy
  }
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, static_cast<uint64_t>(kThreads));
}

TEST(SharedResultCacheTest, AbortWakesWaitersWithBusy) {
  SharedResultCache cache;
  ASSERT_EQ(cache.Acquire(3, true).kind, SharedResultCache::Outcome::kLeased);
  constexpr int kWaiters = 4;
  std::atomic<int> busy{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      auto r = cache.Acquire(3, /*may_wait=*/true);
      if (r.kind == SharedResultCache::Outcome::kBusy) busy.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.Abort(3);
  for (std::thread& t : threads) t.join();
  // Abort degrades to recomputation, never an error and never a hang.
  EXPECT_EQ(busy.load(), kWaiters);
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // An aborted lease's waiters count as busy, not coalesced.
  EXPECT_EQ(stats.busy, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kWaiters + 1));
  // The signature is leasable again after the abort.
  EXPECT_EQ(cache.Acquire(3, true).kind, SharedResultCache::Outcome::kLeased);
  cache.Abort(3);
}

TEST(SharedResultCacheTest, ClearDropsEntriesButKeepsCounters) {
  SharedResultCache cache;
  for (uint64_t sig = 1; sig <= 2; ++sig) {
    ASSERT_EQ(cache.Acquire(sig, true).kind,
              SharedResultCache::Outcome::kLeased);
    cache.Publish(sig, Entry(10));
  }
  cache.Clear();
  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, 2u);
}

}  // namespace
}  // namespace etlopt
