// The shared result cache's correctness contract: caching is invisible.
// For every workflow, every engine, every thread count and every cut-
// point policy, a run with the cache on — cold, warm, shared across
// engines, under eviction pressure, or raced by concurrent identical
// runs — produces byte-identical target_data and rows_out to the
// legacy cache-off run.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/executor.h"
#include "engine/vectorized.h"
#include "service/shared_result_cache.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

ExecutionOptions EngineOptions(EngineKind engine, size_t threads,
                               SharedResultCache* cache,
                               CutPointPolicy policy) {
  ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.batch_size = 64;
  options.cache.cache = cache;
  options.cache.cut_points = policy;
  return options;
}

void ExpectSameResult(const ExecutionResult& base, const ExecutionResult& got,
                      const std::string& what) {
  EXPECT_EQ(base.target_data, got.target_data) << what;
  EXPECT_EQ(base.rows_out, got.rows_out) << what;
}

size_t TotalRowsOut(const ExecutionResult& r) {
  size_t n = 0;
  for (const auto& [id, rows] : r.rows_out) n += rows;
  return n;
}

struct Case {
  Workflow workflow;
  ExecutionInput input;
  ExecutionResult baseline;
};

Case MakeCase(WorkloadCategory category, uint64_t seed) {
  GeneratorOptions options;
  options.category = category;
  options.seed = seed;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK(g.ok());
  Case c;
  c.workflow = std::move(g->workflow);
  c.input = GenerateInputFor(c.workflow, seed + 100, 80);
  auto base = ExecuteWorkflow(c.workflow, c.input);
  ETLOPT_CHECK(base.ok());
  c.baseline = std::move(base).value();
  return c;
}

// The core sweep: workflow × policy × engine × threads, cold and warm
// runs against one shared cache. Every result must match the cache-off
// baseline exactly, and warm coverage must actually come from the cache.
TEST(SharedCacheEquivalenceTest, CacheOnIsByteIdenticalAcrossEnginesThreads) {
  const std::vector<std::pair<WorkloadCategory, uint64_t>> cases = {
      {WorkloadCategory::kSmall, 1},
      {WorkloadCategory::kSmall, 3},
      {WorkloadCategory::kMedium, 2},
  };
  for (const auto& [category, seed] : cases) {
    Case c = MakeCase(category, seed);
    for (CutPointPolicy policy :
         {CutPointPolicy::kAuto, CutPointPolicy::kAll}) {
      SharedResultCache cache;
      for (EngineKind engine : {EngineKind::kSerial, EngineKind::kVectorized}) {
        for (size_t threads : {1u, 2u, 8u}) {
          auto r = ExecuteWith(c.workflow, c.input,
                               EngineOptions(engine, threads, &cache, policy));
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ExpectSameResult(c.baseline, *r,
                           StrFormat("seed=%llu engine=%d threads=%zu",
                                     (unsigned long long)seed, (int)engine,
                                     threads));
          EXPECT_TRUE(r->cache.enabled);
          EXPECT_GT(r->cache.cut_points, 0u);
        }
      }
      // Everything after the first (cold) run is served from the cache.
      ResultCacheStats stats = cache.Stats();
      EXPECT_GT(stats.hits, 0u);
      EXPECT_GT(stats.insertions, 0u);
    }
  }
}

TEST(SharedCacheEquivalenceTest, WarmRunExecutesNothing) {
  Case c = MakeCase(WorkloadCategory::kMedium, 5);
  SharedResultCache cache;
  CacheOptions copts;
  copts.cache = &cache;
  auto cold = ExecuteWorkflow(c.workflow, c.input, copts);
  ASSERT_TRUE(cold.ok());
  ExpectSameResult(c.baseline, *cold, "cold");
  EXPECT_EQ(cold->cache.hits, 0u);
  EXPECT_GT(cold->cache.published, 0u);
  EXPECT_EQ(cold->cache.rows_computed, TotalRowsOut(c.baseline));

  // The warm run hits at the pre-target cut point and skips the entire
  // upstream cone — zero activity executions, yet complete rows_out.
  auto warm = ExecuteWorkflow(c.workflow, c.input, copts);
  ASSERT_TRUE(warm.ok());
  ExpectSameResult(c.baseline, *warm, "warm");
  EXPECT_GT(warm->cache.hits, 0u);
  EXPECT_EQ(warm->cache.nodes_executed, 0u);
  EXPECT_EQ(warm->cache.rows_computed, 0u);
}

TEST(SharedCacheEquivalenceTest, ResultsTransferAcrossEngines) {
  Case c = MakeCase(WorkloadCategory::kMedium, 7);
  SharedResultCache cache;
  // Publisher: serial. Consumer: vectorized at four threads.
  auto cold = ExecuteWith(
      c.workflow, c.input,
      EngineOptions(EngineKind::kSerial, 1, &cache, CutPointPolicy::kAuto));
  ASSERT_TRUE(cold.ok());
  auto warm = ExecuteWith(
      c.workflow, c.input,
      EngineOptions(EngineKind::kVectorized, 4, &cache, CutPointPolicy::kAuto));
  ASSERT_TRUE(warm.ok());
  ExpectSameResult(c.baseline, *warm, "cross-engine warm");
  EXPECT_EQ(warm->cache.nodes_executed, 0u);
}

TEST(SharedCacheEquivalenceTest, CorrectUnderEvictionPressure) {
  Case c = MakeCase(WorkloadCategory::kMedium, 9);
  SharedResultCacheOptions cache_options;
  cache_options.shards = 1;
  cache_options.byte_budget = 2048;  // far below any materialized cone
  SharedResultCache cache(cache_options);
  CacheOptions copts;
  copts.cache = &cache;
  copts.cut_points = CutPointPolicy::kAll;
  for (int run = 0; run < 3; ++run) {
    auto r = ExecuteWorkflow(c.workflow, c.input, copts);
    ASSERT_TRUE(r.ok());
    ExpectSameResult(c.baseline, *r, "under eviction");
  }
  ResultCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, cache_options.byte_budget);
  EXPECT_GT(stats.evictions + stats.oversized, 0u);
}

// k concurrent identical runs against an empty cache: single-flight
// coalescing must collapse them to ONE execution of the workflow. Every
// run returns the baseline bytes; the summed executed work equals
// exactly one uncached run. TSan runs this test to vet the lease
// protocol's synchronization.
TEST(SharedCacheEquivalenceTest, ConcurrentIdenticalRunsExecuteOnce) {
  Case c = MakeCase(WorkloadCategory::kMedium, 4);
  const size_t baseline_work = TotalRowsOut(c.baseline);
  SharedResultCache cache;
  constexpr int kRuns = 6;
  std::vector<ExecutionResult> results(kRuns);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int i = 0; i < kRuns; ++i) {
    threads.emplace_back([&, i] {
      CacheOptions copts;
      copts.cache = &cache;
      auto r = ExecuteWorkflow(c.workflow, c.input, copts);
      if (!r.ok()) {
        failed = true;
        return;
      }
      results[i] = std::move(r).value();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  size_t total_work = 0;
  for (int i = 0; i < kRuns; ++i) {
    ExpectSameResult(c.baseline, results[i], StrFormat("run %d", i));
    total_work += results[i].cache.rows_computed;
  }
  // One leader computed everything; every other run coalesced onto its
  // leases or hit the published entries.
  EXPECT_EQ(total_work, baseline_work);
}

}  // namespace
}  // namespace etlopt
