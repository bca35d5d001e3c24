// OptimizerService: optimizer-as-a-service. Wraps the state-space search
// behind a concurrent request interface: requests queue onto a ThreadPool,
// answers come from the PlanCache when possible (cached responses are
// byte-identical to fresh searches — same cost bits, signature, and
// printed workflow), and the cache survives restarts via Save/LoadPlans.
//
// Backpressure is explicit: when queued + running requests reach
// max_queue, Submit answers ResourceExhausted immediately instead of
// letting the queue grow without bound.

#ifndef ETLOPT_SERVICE_OPTIMIZER_SERVICE_H_
#define ETLOPT_SERVICE_OPTIMIZER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "engine/thread_pool.h"
#include "service/circuit_breaker.h"
#include "service/plan_cache.h"
#include "service/service_stats.h"
#include "service/shared_result_cache.h"

namespace etlopt {

struct ServiceOptions {
  /// Worker threads serving requests; 0 = ThreadPool::DefaultThreads().
  size_t num_threads = 0;
  /// Cap on queued + running requests; past it Submit rejects with
  /// ResourceExhausted.
  size_t max_queue = 256;
  PlanCacheOptions cache;

  /// Default wall-clock budget for one request (cache lookup, search,
  /// retries). 0 = unlimited; a request can set its own.
  int64_t default_deadline_millis = 0;
  /// Retry of transiently-failing searches, with jittered backoff.
  RetryPolicy retry;
  /// Seed for the retry jitter (reproducible service behavior).
  uint64_t retry_seed = 42;
  /// Trips after repeated search failures; while open, compute attempts
  /// are rejected instantly (cache hits still serve).
  CircuitBreakerOptions breaker;
  /// When a search fails or the breaker is open, answer with a cheap
  /// heuristic-greedy plan (marked `degraded`, never cached) instead of
  /// erroring.
  bool degrade_on_failure = true;
  /// State budget of the degraded-mode greedy search.
  size_t degraded_max_states = 64;
  /// Wall-clock budget of the degraded-mode greedy search.
  int64_t degraded_max_millis = 250;
};

/// Rejects nonsensical configurations (bad retry policy or breaker
/// options, negative deadline, zero degraded budget) with
/// InvalidArgument. Served requests call this up front.
Status ValidateServiceOptions(const ServiceOptions& options);

struct OptimizeRequest {
  Workflow workflow;
  SearchAlgorithm algorithm = SearchAlgorithm::kHeuristic;
  SearchOptions options;
  std::vector<MergeConstraint> merge_constraints;
  /// Per-request deadline override; 0 = use the service default,
  /// negative is rejected.
  int64_t deadline_millis = 0;
};

struct OptimizeResponse {
  /// The answer; shared with the cache (and with coalesced requests).
  std::shared_ptr<const CachedPlan> plan;
  bool cache_hit = false;
  bool coalesced = false;
  /// Fallback answer (heuristic-greedy under a tiny budget) served
  /// because the real search failed or the breaker was open. Degraded
  /// answers are never cached: the cache only holds plans byte-identical
  /// to a fresh full search.
  bool degraded = false;
  /// This request's wall-clock latency. For Submit-path requests the
  /// clock starts at enqueue, so queue wait counts (and counts against
  /// the deadline); for Optimize it starts on entry.
  double latency_millis = 0.0;
};

class OptimizerService {
 public:
  /// `model` must outlive the service.
  explicit OptimizerService(const CostModel& model,
                            ServiceOptions options = {});

  /// Drains queued requests, then joins the workers.
  ~OptimizerService() = default;

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// Queues a request. The returned future is immediately ready with
  /// ResourceExhausted when the service is at max_queue.
  std::future<StatusOr<OptimizeResponse>> Submit(OptimizeRequest request);

  /// Serves a request on the calling thread — same cache/coalescing path
  /// as Submit, no queue slot consumed.
  StatusOr<OptimizeResponse> Optimize(OptimizeRequest request);

  /// Attaches the shared intermediate-result cache whose counters this
  /// service's Stats()/StatsReport() should surface (the serving stack
  /// owns both and executes workflows against it). Unowned; must outlive
  /// the service or be detached with nullptr. The service itself never
  /// reads or writes the cache — it only snapshots counters.
  void AttachResultCache(const SharedResultCache* cache) {
    result_cache_ = cache;
  }

  ServiceStats Stats() const;
  std::string StatsReport() const { return ServiceStatsReport(Stats()); }

  /// On-disk encoding of a persisted plan-cache file.
  enum class PlanFileFormat {
    kText,    // concatenated canonical plan texts
    kBinary,  // "ETLPLNS1" container, whole-file checksum
  };

  /// Persists every persistable cached plan.
  Status SavePlans(const std::string& path,
                   PlanFileFormat format = PlanFileFormat::kText) const;

  /// Warm-loads plans persisted by SavePlans; the format is sniffed from
  /// the file magic. A corrupt file (truncated, bit-flipped, checksum
  /// mismatch) fails with a clean Status and admits nothing. Every plan
  /// is re-applied and verified (cost bits + signature hash) before it
  /// is admitted; plans recorded under a different cost-model
  /// fingerprint are skipped. Returns the number of plans admitted to
  /// the cache.
  StatusOr<size_t> LoadPlans(const std::string& path);

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  /// `start` anchors the request's deadline and latency clock: Submit
  /// passes its enqueue time (queue wait burns deadline budget), Optimize
  /// passes entry time.
  StatusOr<OptimizeResponse> Handle(OptimizeRequest& request,
                                    std::chrono::steady_clock::time_point start);
  StatusOr<std::shared_ptr<const CachedPlan>> ComputePlan(
      const OptimizeRequest& request,
      std::chrono::steady_clock::time_point start, int64_t deadline_millis);
  StatusOr<std::shared_ptr<const CachedPlan>> MakeEntry(
      const OptimizeRequest& request, SearchResult result, bool cacheable);
  StatusOr<OptimizeResponse> Degrade(const OptimizeRequest& request,
                                     OptimizeResponse response);

  const CostModel& model_;
  ServiceOptions options_;
  PlanCache cache_;
  const SharedResultCache* result_cache_ = nullptr;
  CircuitBreaker breaker_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> uncacheable_{0};
  std::atomic<uint64_t> searches_run_{0};
  std::atomic<uint64_t> failed_searches_{0};
  std::atomic<uint64_t> search_micros_{0};
  std::atomic<uint64_t> search_retries_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> retry_nonce_{0};
  // Last member: its destructor drains pending tasks, which still touch
  // the cache and counters above.
  ThreadPool pool_;
};

}  // namespace etlopt

#endif  // ETLOPT_SERVICE_OPTIMIZER_SERVICE_H_
