#include "service/optimizer_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "cost/cost_model.h"
#include "cost/external_cost_model.h"
#include "fault/fault_injector.h"
#include "engine/executor.h"
#include "io/plan_format.h"
#include "io/text_format.h"
#include "service/shared_result_cache.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

SearchOptions SmallBudget() {
  SearchOptions options;
  options.max_states = 2000;
  return options;
}

OptimizeRequest RequestFor(uint64_t seed,
                           WorkloadCategory category = WorkloadCategory::kSmall) {
  GeneratorOptions gen;
  gen.category = category;
  gen.seed = seed;
  auto generated = GenerateWorkflow(gen);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  OptimizeRequest request;
  request.workflow = std::move(generated->workflow);
  request.options = SmallBudget();
  return request;
}

// "Byte-identical" for a served answer: cost bits, signature, visited
// states, and the printed optimized workflow.
void ExpectSameAnswer(const CachedPlan& a, const CachedPlan& b) {
  EXPECT_EQ(a.result.best.cost, b.result.best.cost);
  EXPECT_EQ(a.result.best.signature_hash, b.result.best.signature_hash);
  EXPECT_EQ(a.result.visited_states, b.result.visited_states);
  EXPECT_EQ(a.result.initial_cost, b.result.initial_cost);
  EXPECT_EQ(PrintPlanText(a.plan), PrintPlanText(b.plan));
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(OptimizerServiceTest, CachedResponseIsByteIdenticalToFresh) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.num_threads = 2;
  OptimizerService service(model, options);

  auto cold = service.Optimize(RequestFor(1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);

  auto warm = service.Optimize(RequestFor(1));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  ExpectSameAnswer(*cold->plan, *warm->plan);
  // The warm answer IS the cold answer (shared, not recomputed).
  EXPECT_EQ(warm->plan, cold->plan);

  // A fresh service (empty cache) reproduces the same answer bits.
  OptimizerService fresh(model, options);
  auto recomputed = fresh.Optimize(RequestFor(1));
  ASSERT_TRUE(recomputed.ok());
  ExpectSameAnswer(*cold->plan, *recomputed->plan);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.searches_run, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(OptimizerServiceTest, ConcurrentIdenticalRequestsRunOneSearch) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.num_threads = 8;
  OptimizerService service(model, options);

  constexpr int kRequests = 8;
  std::vector<std::future<StatusOr<OptimizeResponse>>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(RequestFor(2)));
  }
  std::vector<OptimizeResponse> responses;
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }
  // Single-flight: exactly one search ran; every response shares its plan.
  EXPECT_EQ(service.Stats().searches_run, 1u);
  for (const OptimizeResponse& response : responses) {
    EXPECT_EQ(response.plan, responses[0].plan);
  }
}

TEST(OptimizerServiceTest, ResultsIdenticalAcrossServiceThreadCounts) {
  LinearLogCostModel model;
  std::vector<std::shared_ptr<const CachedPlan>> answers;
  for (size_t threads : {1u, 2u, 8u}) {
    ServiceOptions options;
    options.num_threads = threads;
    OptimizerService service(model, options);
    std::vector<std::future<StatusOr<OptimizeResponse>>> futures;
    for (uint64_t seed : {1ull, 2ull, 3ull, 1ull, 2ull, 3ull}) {
      futures.push_back(service.Submit(RequestFor(seed)));
    }
    std::shared_ptr<const CachedPlan> first;
    for (auto& future : futures) {
      auto response = future.get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (first == nullptr) first = response.value().plan;
    }
    answers.push_back(std::move(first));
  }
  ExpectSameAnswer(*answers[0], *answers[1]);
  ExpectSameAnswer(*answers[0], *answers[2]);
}

TEST(OptimizerServiceTest, RejectsWhenQueueFull) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queue = 2;
  OptimizerService service(model, options);

  // Flood with distinct medium requests so the single worker backs up.
  std::vector<std::future<StatusOr<OptimizeResponse>>> futures;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    futures.push_back(
        service.Submit(RequestFor(seed, WorkloadCategory::kMedium)));
  }
  size_t rejected = 0;
  for (auto& future : futures) {
    auto response = future.get();
    if (!response.ok()) {
      EXPECT_TRUE(response.status().IsResourceExhausted())
          << response.status().ToString();
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(service.Stats().rejected, rejected);
  // The queue drains: a later request is accepted again.
  auto after = service.Submit(RequestFor(100)).get();
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(OptimizerServiceTest, DistinctOptionsGetDistinctEntries) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  OptimizeRequest a = RequestFor(3);
  OptimizeRequest b = RequestFor(3);
  b.options.max_states = a.options.max_states / 2;
  OptimizeRequest c = RequestFor(3);
  c.algorithm = SearchAlgorithm::kHeuristicGreedy;
  ASSERT_TRUE(service.Optimize(std::move(a)).ok());
  ASSERT_TRUE(service.Optimize(std::move(b)).ok());
  ASSERT_TRUE(service.Optimize(std::move(c)).ok());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.searches_run, 3u);
  EXPECT_EQ(stats.cache.entries, 3u);
}

TEST(OptimizerServiceTest, ThreadKnobVariantsShareOneEntry) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  OptimizeRequest a = RequestFor(4);
  OptimizeRequest b = RequestFor(4);
  b.options.num_threads = 4;
  ASSERT_TRUE(service.Optimize(std::move(a)).ok());
  auto second = service.Optimize(std::move(b));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(service.Stats().searches_run, 1u);
}

TEST(OptimizerServiceTest, PlansSurviveRestart) {
  LinearLogCostModel model;
  std::string path = TempPath("optimizer_service_plans.etlplan");
  std::shared_ptr<const CachedPlan> original;
  {
    OptimizerService service(model, {});
    auto cold = service.Optimize(RequestFor(5));
    ASSERT_TRUE(cold.ok());
    original = cold->plan;
    ASSERT_TRUE(service.Optimize(RequestFor(6)).ok());
    ASSERT_TRUE(service.SavePlans(path).ok());
  }
  OptimizerService restarted(model, {});
  auto loaded = restarted.LoadPlans(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  // The reloaded cache serves without searching, with the same bits.
  auto warm = restarted.Optimize(RequestFor(5));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(restarted.Stats().searches_run, 0u);
  ExpectSameAnswer(*original, *warm->plan);
  std::remove(path.c_str());
}

TEST(OptimizerServiceTest, LoadSkipsForeignCostModel) {
  std::string path = TempPath("optimizer_service_foreign.etlplan");
  LinearLogCostModel linlog;
  {
    OptimizerService service(linlog, {});
    ASSERT_TRUE(service.Optimize(RequestFor(7)).ok());
    ASSERT_TRUE(service.SavePlans(path).ok());
  }
  ExternalSortCostModel other;
  OptimizerService restarted(other, {});
  auto loaded = restarted.LoadPlans(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0u);  // fingerprint mismatch: skipped, not served
  std::remove(path.c_str());
}

TEST(OptimizerServiceTest, StatsReportMentionsKeyFigures) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  ASSERT_TRUE(service.Optimize(RequestFor(8)).ok());
  ASSERT_TRUE(service.Optimize(RequestFor(8)).ok());
  std::string report = service.StatsReport();
  EXPECT_NE(report.find("optimizer service"), std::string::npos);
  EXPECT_NE(report.find("plan cache hit rate"), std::string::npos);
  EXPECT_NE(report.find("result cache hit rate"), std::string::npos);
  EXPECT_NE(report.find("50.0%"), std::string::npos);
}

TEST(OptimizerServiceTest, StatsReportTextIsGolden) {
  ServiceStats stats;
  stats.requests = 11;
  stats.rejected = 12;
  stats.uncacheable = 13;
  stats.searches_run = 14;
  stats.failed_searches = 15;
  stats.search_retries = 16;
  stats.search_millis = 17.5;
  stats.degraded = 18;
  stats.deadline_exceeded = 19;
  stats.breaker.state = BreakerState::kHalfOpen;
  stats.breaker.trips = 20;
  stats.breaker.rejections = 21;
  stats.in_flight = 22;
  stats.max_queue = 23;
  stats.worker_threads = 24;
  stats.cache.hits = 30;
  stats.cache.misses = 10;
  stats.cache.coalesced = 31;
  stats.cache.insertions = 32;
  stats.cache.evictions = 33;
  stats.cache.oversized = 34;
  stats.cache.entries = 35;
  stats.cache.bytes = 36;
  stats.cache.byte_budget = 37;
  stats.cache.shards = 38;
  stats.result_cache.hits = 1;
  stats.result_cache.misses = 3;
  stats.result_cache.coalesced = 40;
  stats.result_cache.busy = 41;
  stats.result_cache.insertions = 42;
  stats.result_cache.evictions = 43;
  stats.result_cache.oversized = 44;
  stats.result_cache.aborted = 45;
  stats.result_cache.entries = 46;
  stats.result_cache.bytes = 47;
  stats.result_cache.byte_budget = 48;
  stats.result_cache.shards = 49;
  EXPECT_EQ(ServiceStatsReport(stats),
            "optimizer service\n"
            "  requests               11 (12 rejected, 13 uncacheable)\n"
            "  searches run           14 (15 failed, 16 retries, 17.5 ms "
            "total)\n"
            "  resilience             18 degraded, 19 deadline-exceeded\n"
            "  breaker                half-open (20 trips, 21 rejections)\n"
            "  queue                  22 in flight / 23 max, 24 workers\n"
            "  plan cache hit rate    75.0% (30 hits, 10 misses, 31 "
            "coalesced)\n"
            "  plan cache size        35 plans, 36 / 37 bytes over 38 "
            "shards\n"
            "  plan cache churn       32 insertions, 33 evictions, 34 "
            "oversized\n"
            "  result cache hit rate  25.0% (1 hits, 3 misses, 40 coalesced, "
            "41 busy)\n"
            "  result cache size      46 results, 47 / 48 bytes over 49 "
            "shards\n"
            "  result cache churn     42 insertions, 43 evictions, 44 "
            "oversized, 45 aborted\n");
}

TEST(OptimizerServiceTest, AttachedResultCacheSurfacesInStats) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  EXPECT_EQ(service.Stats().result_cache.shards, 0u);  // none attached
  SharedResultCache result_cache;
  service.AttachResultCache(&result_cache);
  EXPECT_GT(service.Stats().result_cache.shards, 0u);
  EXPECT_EQ(service.Stats().result_cache.hits, 0u);
  // Executor traffic against the attached cache shows up in snapshots.
  GeneratorOptions gen;
  gen.category = WorkloadCategory::kSmall;
  gen.seed = 4;
  auto g = GenerateWorkflow(gen);
  ASSERT_TRUE(g.ok());
  ExecutionInput input = GenerateInputFor(g->workflow, 7, 50);
  CacheOptions copts;
  copts.cache = &result_cache;
  ASSERT_TRUE(ExecuteWorkflow(g->workflow, input, copts).ok());
  ASSERT_TRUE(ExecuteWorkflow(g->workflow, input, copts).ok());
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.result_cache.hits, 0u);
  EXPECT_GT(stats.result_cache.bytes, 0u);
  service.AttachResultCache(nullptr);
  EXPECT_EQ(service.Stats().result_cache.shards, 0u);
}

// ---------------------------------------------------------------------------
// Service hardening (ISSUE 5): deadlines, retry, circuit breaker,
// degradation, and durable plan files that reject corruption.
// ---------------------------------------------------------------------------

FaultSchedule SearchFaults(std::initializer_list<uint64_t> hits,
                           FaultKind kind = FaultKind::kError) {
  FaultSchedule schedule;
  for (uint64_t hit : hits) {
    FaultSpec spec;
    spec.site = FaultSite::kSearchExecute;
    spec.hit = hit;
    spec.kind = kind;
    schedule.faults.push_back(spec);
  }
  return schedule;
}

TEST(OptimizerServiceHardeningTest, ValidatesOptionsUpFront) {
  EXPECT_TRUE(ValidateServiceOptions(ServiceOptions{}).ok());
  ServiceOptions bad;
  bad.default_deadline_millis = -5;
  EXPECT_TRUE(ValidateServiceOptions(bad).IsInvalidArgument());
  bad = ServiceOptions{};
  bad.retry.max_attempts = 0;
  EXPECT_TRUE(ValidateServiceOptions(bad).IsInvalidArgument());
  bad = ServiceOptions{};
  bad.breaker.half_open_probes = 0;
  EXPECT_TRUE(ValidateServiceOptions(bad).IsInvalidArgument());
  bad = ServiceOptions{};
  bad.degraded_max_states = 0;
  EXPECT_TRUE(ValidateServiceOptions(bad).IsInvalidArgument());
  // ... but a zero degraded budget is fine when degradation is off.
  bad.degrade_on_failure = false;
  EXPECT_TRUE(ValidateServiceOptions(bad).ok());

  // A served request surfaces the misconfiguration as a clean error.
  LinearLogCostModel model;
  ServiceOptions options;
  options.default_deadline_millis = -1;
  OptimizerService service(model, options);
  auto response = service.Optimize(RequestFor(20));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument())
      << response.status().ToString();
}

TEST(OptimizerServiceHardeningTest, RejectsNegativeRequestDeadline) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  OptimizeRequest request = RequestFor(21);
  request.deadline_millis = -1;
  auto response = service.Optimize(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument())
      << response.status().ToString();
}

TEST(OptimizerServiceHardeningTest, TransientSearchFaultIsRetriedThenCached) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.retry.initial_backoff_millis = 1;
  options.retry.max_backoff_millis = 2;
  OptimizerService service(model, options);
  {
    ScopedFaultInjection arm(SearchFaults({0}));  // first attempt fails
    auto response = service.Optimize(RequestFor(22));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->degraded);
    EXPECT_FALSE(response->cache_hit);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.search_retries, 1u);
  EXPECT_EQ(stats.failed_searches, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  // The retried answer was cached like any clean one.
  auto warm = service.Optimize(RequestFor(22));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
}

TEST(OptimizerServiceHardeningTest, DegradesToGreedyWhenRetriesExhaust) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_millis = 1;
  options.retry.max_backoff_millis = 2;
  OptimizerService service(model, options);
  {
    ScopedFaultInjection arm(SearchFaults({0, 1}));  // both attempts fail
    auto response = service.Optimize(RequestFor(23));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->degraded);
    ASSERT_NE(response->plan, nullptr);
    // The fallback is a real (if cheap) plan for this workflow.
    EXPECT_GT(response->plan->result.best.cost, 0.0);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.failed_searches, 1u);
  // Degraded answers are never cached: with the fault gone, the same
  // request runs a fresh full search.
  auto fresh = service.Optimize(RequestFor(23));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_FALSE(fresh->degraded);
}

TEST(OptimizerServiceHardeningTest, BreakerOpensAndCacheStillServes) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.degrade_on_failure = false;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_millis = 1000000;  // stays open for the whole test
  OptimizerService service(model, options);

  // Warm the cache before anything fails.
  ASSERT_TRUE(service.Optimize(RequestFor(24)).ok());

  {
    ScopedFaultInjection arm(SearchFaults({0}));
    auto failed = service.Optimize(RequestFor(25));
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsUnavailable())
        << failed.status().ToString();
  }
  EXPECT_EQ(service.Stats().breaker.state, BreakerState::kOpen);

  // No fault armed, but the open breaker rejects fresh computes...
  auto rejected = service.Optimize(RequestFor(26));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_NE(rejected.status().message().find("circuit breaker"),
            std::string::npos)
      << rejected.status().ToString();
  // ... while cached answers keep serving.
  auto warm = service.Optimize(RequestFor(24));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_GE(service.Stats().breaker.rejections, 1u);
}

TEST(OptimizerServiceHardeningTest, OpenBreakerDegradesWhenEnabled) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_millis = 1000000;
  OptimizerService service(model, options);
  {
    ScopedFaultInjection arm(SearchFaults({0}));
    auto first = service.Optimize(RequestFor(27));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(first->degraded);
  }
  ASSERT_EQ(service.Stats().breaker.state, BreakerState::kOpen);
  // Breaker open, faults gone: the service still answers, degraded.
  auto second = service.Optimize(RequestFor(28));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->degraded);
  EXPECT_EQ(service.Stats().degraded, 2u);
}

TEST(OptimizerServiceHardeningTest, DeadlineExceededSurfacesCleanly) {
  LinearLogCostModel model;
  ServiceOptions options;
  options.degrade_on_failure = true;  // deadline errors must NOT degrade
  OptimizerService service(model, options);
  OptimizeRequest request = RequestFor(29);
  request.deadline_millis = 5;
  // Burn the whole budget before the search starts: a 50 ms injected
  // delay at the request entry point.
  FaultSchedule schedule;
  FaultSpec spec;
  spec.site = FaultSite::kServiceRequest;
  spec.hit = 0;
  spec.kind = FaultKind::kDelay;
  spec.delay_micros = 50000;
  schedule.faults.push_back(spec);
  ScopedFaultInjection arm(schedule);
  auto response = service.Optimize(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

TEST(OptimizerServiceHardeningTest, InjectedRequestFaultFailsCleanly) {
  LinearLogCostModel model;
  OptimizerService service(model, {});
  {
    FaultSchedule schedule;
    FaultSpec spec;
    spec.site = FaultSite::kServiceRequest;
    spec.hit = 0;
    spec.kind = FaultKind::kError;
    schedule.faults.push_back(spec);
    ScopedFaultInjection arm(schedule);
    auto response = service.Optimize(RequestFor(30));
    ASSERT_FALSE(response.ok());
    EXPECT_TRUE(response.status().IsUnavailable())
        << response.status().ToString();
  }
  // The service is fully functional afterwards.
  auto response = service.Optimize(RequestFor(30));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

TEST(OptimizerServiceHardeningTest, BinaryPlanFileSurvivesRestart) {
  LinearLogCostModel model;
  std::string path = TempPath("optimizer_service_plans.etlplanb");
  std::shared_ptr<const CachedPlan> original;
  {
    OptimizerService service(model, {});
    auto cold = service.Optimize(RequestFor(31));
    ASSERT_TRUE(cold.ok());
    original = cold->plan;
    ASSERT_TRUE(service.Optimize(RequestFor(32)).ok());
    ASSERT_TRUE(
        service.SavePlans(path, OptimizerService::PlanFileFormat::kBinary)
            .ok());
  }
  OptimizerService restarted(model, {});
  auto loaded = restarted.LoadPlans(path);  // format sniffed from magic
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  auto warm = restarted.Optimize(RequestFor(31));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(restarted.Stats().searches_run, 0u);
  ExpectSameAnswer(*original, *warm->plan);
  std::remove(path.c_str());
}

TEST(OptimizerServiceHardeningTest, FailedSaveKeepsPreviousPlanFile) {
  // A save that cannot complete must leave the last good file in place:
  // the server saves over its own plan file on Stop and refuses to start
  // on a corrupt one.
  LinearLogCostModel model;
  std::string path = TempPath("optimizer_service_atomic.etlplan");
  std::filesystem::remove_all(path + ".tmp");
  OptimizerService service(model, {});
  ASSERT_TRUE(service.Optimize(RequestFor(35)).ok());
  ASSERT_TRUE(service.SavePlans(path).ok());
  auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  ASSERT_TRUE(service.Optimize(RequestFor(36)).ok());
  // A directory squatting on the temp name makes the write fail.
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  for (auto format : {OptimizerService::PlanFileFormat::kText,
                      OptimizerService::PlanFileFormat::kBinary}) {
    Status saved = service.SavePlans(path, format);
    EXPECT_TRUE(saved.IsIOError()) << saved.ToString();
    auto after = ReadFileToString(path);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*after, *before);
  }
  OptimizerService restarted(model, {});
  auto loaded = restarted.LoadPlans(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
  std::filesystem::remove_all(path + ".tmp");
  std::remove(path.c_str());
}

TEST(OptimizerServiceHardeningTest, CorruptPlanFileAdmitsNothing) {
  LinearLogCostModel model;
  std::string good_path = TempPath("optimizer_service_good.etlplanb");
  {
    OptimizerService service(model, {});
    ASSERT_TRUE(service.Optimize(RequestFor(33)).ok());
    ASSERT_TRUE(service.Optimize(RequestFor(34)).ok());
    ASSERT_TRUE(
        service.SavePlans(good_path,
                          OptimizerService::PlanFileFormat::kBinary)
            .ok());
  }
  std::string bytes;
  {
    std::ifstream in(good_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 64u);

  std::string bad_path = TempPath("optimizer_service_bad.etlplanb");
  auto attempt_load = [&](const std::string& corrupt) {
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(),
                static_cast<std::streamsize>(corrupt.size()));
    }
    OptimizerService victim(model, {});
    auto loaded = victim.LoadPlans(bad_path);
    EXPECT_FALSE(loaded.ok()) << "corruption was accepted";
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsInvalidArgument())
          << loaded.status().ToString();
    }
    // All-or-nothing: a bad file admits zero plans.
    EXPECT_EQ(victim.Stats().cache.entries, 0u);
  };

  // Truncations at several depths (past the magic, so the binary parser
  // is the one rejecting).
  for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{24}}) {
    attempt_load(bytes.substr(0, len));
  }
  // Single-bit flips sprinkled over the whole file.
  for (size_t offset = 8; offset < bytes.size();
       offset += bytes.size() / 16 + 1) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    attempt_load(corrupt);
  }
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace etlopt
