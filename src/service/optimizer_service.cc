#include "service/optimizer_service.h"

#include <chrono>
#include <utility>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "io/plan_format.h"

namespace etlopt {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The cache charge of one entry: its serialized form plus the live
// workflow that gets handed back to requesters.
size_t EntryBytes(const CachedPlan& entry) {
  size_t bytes = sizeof(CachedPlan);
  bytes += entry.plan.initial_text.size() + entry.plan.optimized_text.size();
  bytes += entry.plan.algorithm.size() + entry.plan.cost_model.size() +
           entry.plan.options.size() + entry.plan.merges.size();
  for (const TransitionRecord& record : entry.plan.path) {
    bytes += sizeof(TransitionRecord) + record.description.size();
  }
  for (const TransitionRecord& record : entry.result.best_path) {
    bytes += sizeof(TransitionRecord) + record.description.size();
  }
  bytes += entry.result.best.workflow.ApproxMemoryBytes();
  bytes += entry.result.best.signature.size();
  return bytes;
}

// Errors that degradation may absorb: infrastructure failures, not
// client mistakes (an invalid request fails the greedy fallback too) and
// not injected crash-points (those model the process dying).
bool DegradableFailure(const Status& status) {
  if (IsInjectedCrash(status)) return false;
  return status.IsUnavailable() || status.IsIOError() ||
         status.IsInternal() || status.IsResourceExhausted();
}

}  // namespace

Status ValidateServiceOptions(const ServiceOptions& options) {
  ETLOPT_RETURN_NOT_OK(ValidateRetryPolicy(options.retry));
  ETLOPT_RETURN_NOT_OK(ValidateCircuitBreakerOptions(options.breaker));
  if (options.default_deadline_millis < 0) {
    return Status::InvalidArgument(StrFormat(
        "service: default_deadline_millis must be >= 0 (0 = unlimited), "
        "got %lld",
        static_cast<long long>(options.default_deadline_millis)));
  }
  if (options.degrade_on_failure &&
      (options.degraded_max_states < 1 || options.degraded_max_millis < 1)) {
    return Status::InvalidArgument(
        "service: degraded-mode search needs a positive state and "
        "wall-clock budget");
  }
  return Status::OK();
}

OptimizerService::OptimizerService(const CostModel& model,
                                   ServiceOptions options)
    : model_(model),
      options_(options),
      cache_(options.cache),
      breaker_(options.breaker),
      pool_(options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                     : options.num_threads) {
  if (options_.max_queue == 0) options_.max_queue = 1;
}

std::future<StatusOr<OptimizeResponse>> OptimizerService::Submit(
    OptimizeRequest request) {
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_queue) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    std::promise<StatusOr<OptimizeResponse>> rejected;
    rejected.set_value(Status::ResourceExhausted(
        "optimizer service queue is full (max_queue=" +
        std::to_string(options_.max_queue) + ")"));
    return rejected.get_future();
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  auto promise =
      std::make_shared<std::promise<StatusOr<OptimizeResponse>>>();
  std::future<StatusOr<OptimizeResponse>> future = promise->get_future();
  auto shared_request = std::make_shared<OptimizeRequest>(std::move(request));
  // The deadline clock starts NOW, not when a worker picks the request
  // up: time spent queued is time the client already waited.
  Clock::time_point enqueued = Clock::now();
  pool_.Submit([this, shared_request, promise, enqueued](size_t) {
    promise->set_value(Handle(*shared_request, enqueued));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  });
  return future;
}

StatusOr<OptimizeResponse> OptimizerService::Optimize(
    OptimizeRequest request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  return Handle(request, Clock::now());
}

StatusOr<OptimizeResponse> OptimizerService::Handle(
    OptimizeRequest& request, Clock::time_point start) {
  ETLOPT_FAULT_HIT(FaultSite::kServiceRequest);
  ETLOPT_RETURN_NOT_OK(ValidateServiceOptions(options_));
  if (request.deadline_millis < 0) {
    return Status::InvalidArgument(StrFormat(
        "request: deadline_millis must be >= 0 (0 = service default), "
        "got %lld",
        static_cast<long long>(request.deadline_millis)));
  }
  const int64_t deadline_millis = request.deadline_millis != 0
                                      ? request.deadline_millis
                                      : options_.default_deadline_millis;
  if (!request.workflow.fresh()) {
    ETLOPT_RETURN_NOT_OK(request.workflow.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(
      PlanCacheKey key,
      MakePlanCacheKey(request.workflow, request.algorithm, model_,
                       request.options, request.merge_constraints));
  OptimizeResponse response;
  StatusOr<std::shared_ptr<const CachedPlan>> got = cache_.GetOrCompute(
      key,
      [this, &request, start, deadline_millis] {
        return ComputePlan(request, start, deadline_millis);
      },
      &response.cache_hit, &response.coalesced);
  if (got.ok()) {
    response.plan = std::move(got).value();
    response.latency_millis = MillisSince(start);
    return response;
  }
  if (got.status().IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return got.status();
  }
  if (options_.degrade_on_failure && DegradableFailure(got.status())) {
    StatusOr<OptimizeResponse> degraded =
        Degrade(request, std::move(response));
    if (degraded.ok()) {
      degraded->latency_millis = MillisSince(start);
      return degraded;
    }
    // Fall through to the original failure: the fallback's own error is
    // strictly less informative.
  }
  return got.status();
}

StatusOr<std::shared_ptr<const CachedPlan>> OptimizerService::MakeEntry(
    const OptimizeRequest& request, SearchResult result, bool cacheable) {
  auto entry = std::make_shared<CachedPlan>();
  entry->result = std::move(result);
  StatusOr<OptimizedPlan> plan =
      MakePlan(request.workflow, entry->result, request.algorithm, model_,
               request.options, request.merge_constraints);
  if (plan.ok()) {
    entry->plan = std::move(plan).value();
  } else {
    // A workflow with merged chains cannot be printed: the answer is
    // still served (and, when cacheable, cached in memory), just never
    // persisted.
    entry->persistable = false;
    if (cacheable) uncacheable_.fetch_add(1, std::memory_order_relaxed);
  }
  entry->bytes = EntryBytes(*entry);
  return std::shared_ptr<const CachedPlan>(std::move(entry));
}

StatusOr<std::shared_ptr<const CachedPlan>> OptimizerService::ComputePlan(
    const OptimizeRequest& request, Clock::time_point start,
    int64_t deadline_millis) {
  if (!breaker_.Allow()) {
    return Status::Unavailable(
        "circuit breaker open: recent searches failed");
  }
  StatusOr<SearchResult> result = Status::Internal("search never ran");
  auto attempt = [&]() -> Status {
    if (deadline_millis > 0 && MillisSince(start) >=
                                   static_cast<double>(deadline_millis)) {
      return Status::DeadlineExceeded(StrFormat(
          "request exceeded its %lld ms deadline",
          static_cast<long long>(deadline_millis)));
    }
    ETLOPT_FAULT_HIT(FaultSite::kSearchExecute);
    searches_run_.fetch_add(1, std::memory_order_relaxed);
    Clock::time_point search_start = Clock::now();
    result = RunSearch(request.algorithm, request.workflow, model_,
                       request.options, request.merge_constraints);
    search_micros_.fetch_add(
        static_cast<uint64_t>(MillisSince(search_start) * 1000.0),
        std::memory_order_relaxed);
    return result.status();
  };
  // Jitter is seeded per compute so concurrent requests stay independent
  // yet a single-threaded run is reproducible.
  Rng rng(options_.retry_seed ^
          retry_nonce_.fetch_add(1, std::memory_order_relaxed));
  uint64_t retries = 0;
  Status status =
      RetryWithBackoff(options_.retry, rng, "search", attempt, &retries);
  search_retries_.fetch_add(retries, std::memory_order_relaxed);
  if (!status.ok()) {
    failed_searches_.fetch_add(1, std::memory_order_relaxed);
    breaker_.RecordFailure();
    return status;
  }
  breaker_.RecordSuccess();
  return MakeEntry(request, std::move(result).value(), /*cacheable=*/true);
}

StatusOr<OptimizeResponse> OptimizerService::Degrade(
    const OptimizeRequest& request, OptimizeResponse response) {
  SearchOptions options = request.options;
  options.max_states = options_.degraded_max_states;
  options.max_millis = options_.degraded_max_millis;
  StatusOr<SearchResult> result =
      RunSearch(SearchAlgorithm::kHeuristicGreedy, request.workflow, model_,
                options, request.merge_constraints);
  ETLOPT_RETURN_NOT_OK(result.status());
  OptimizeRequest degraded_request = request;
  degraded_request.algorithm = SearchAlgorithm::kHeuristicGreedy;
  degraded_request.options = options;
  ETLOPT_ASSIGN_OR_RETURN(
      response.plan,
      MakeEntry(degraded_request, std::move(result).value(),
                /*cacheable=*/false));
  response.degraded = true;
  degraded_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

ServiceStats OptimizerService::Stats() const {
  ServiceStats stats;
  stats.cache = cache_.Stats();
  if (result_cache_ != nullptr) stats.result_cache = result_cache_->Stats();
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  stats.searches_run = searches_run_.load(std::memory_order_relaxed);
  stats.failed_searches = failed_searches_.load(std::memory_order_relaxed);
  stats.search_millis =
      static_cast<double>(search_micros_.load(std::memory_order_relaxed)) /
      1000.0;
  stats.search_retries = search_retries_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.breaker = breaker_.Stats();
  stats.in_flight = in_flight_.load(std::memory_order_acquire);
  stats.max_queue = options_.max_queue;
  stats.worker_threads = pool_.num_threads();
  return stats;
}

Status OptimizerService::SavePlans(const std::string& path,
                                   PlanFileFormat format) const {
  ETLOPT_FAULT_HIT(FaultSite::kPlanCacheSave);
  std::vector<OptimizedPlan> plans;
  for (const std::shared_ptr<const CachedPlan>& entry : cache_.Snapshot()) {
    if (entry->persistable) plans.push_back(entry->plan);
  }
  std::string bytes;
  if (format == PlanFileFormat::kBinary) {
    bytes = SerializePlansBinary(plans);
  } else {
    for (const OptimizedPlan& plan : plans) bytes += PrintPlanText(plan);
  }
  return WriteFileAtomic(path, bytes);
}

StatusOr<size_t> OptimizerService::LoadPlans(const std::string& path) {
  ETLOPT_FAULT_HIT(FaultSite::kPlanCacheLoad);
  ETLOPT_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(path));
  std::vector<OptimizedPlan> plans;
  if (StartsWith(content, kPlanCacheBinaryMagic)) {
    ETLOPT_ASSIGN_OR_RETURN(plans, ParsePlansBinary(content));
  } else {
    ETLOPT_ASSIGN_OR_RETURN(plans, ParsePlansText(content));
  }
  std::string fingerprint = model_.Fingerprint();
  size_t loaded = 0;
  for (OptimizedPlan& plan : plans) {
    if (plan.cost_model != fingerprint) continue;
    // Re-derive and verify the recorded answer before admitting it.
    ETLOPT_ASSIGN_OR_RETURN(State best, ApplyPlan(plan, model_));
    ETLOPT_ASSIGN_OR_RETURN(Workflow initial, PlanInitialWorkflow(plan));
    PlanCacheKey key;
    key.workflow_hash = HashWorkflowForCache(initial);
    key.context_hash = HashRequestContext(plan.algorithm, plan.cost_model,
                                          plan.options, plan.merges);
    auto entry = std::make_shared<CachedPlan>();
    entry->result.best = std::move(best);
    entry->result.initial_cost = plan.initial_cost;
    entry->result.visited_states = plan.visited_states;
    entry->result.exhausted = plan.exhausted;
    entry->result.best_path = plan.path;
    entry->plan = std::move(plan);
    entry->bytes = EntryBytes(*entry);
    cache_.Insert(key, std::shared_ptr<const CachedPlan>(std::move(entry)));
    ++loaded;
  }
  return loaded;
}

}  // namespace etlopt
