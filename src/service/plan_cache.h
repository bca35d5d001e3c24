// PlanCache: the serving layer's sharded, signature-keyed store of
// optimized plans.
//
// Key = (workflow signature hash) x (request context hash), where the
// context covers everything else that can change the answer: algorithm,
// cost-model fingerprint, result-affecting search options, and merge
// constraints. num_threads is excluded on purpose — results are
// byte-identical across thread counts, so splitting cache entries on it
// would only lower the hit rate.
//
// Storage and concurrency come from ShardedCache (service/
// sharded_cache.h): N-way sharding keeps unrelated requests from
// contending, and GetOrCompute runs its single-flight coalescing on the
// lease calls, so concurrent misses on the same key run ONE search — the
// first requester computes, the rest wait on its lease and receive the
// same shared plan (or the same failure).

#ifndef ETLOPT_SERVICE_PLAN_CACHE_H_
#define ETLOPT_SERVICE_PLAN_CACHE_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "io/plan_format.h"
#include "optimizer/search.h"
#include "service/sharded_cache.h"

namespace etlopt {

struct PlanCacheKey {
  uint64_t workflow_hash = 0;  // HashWorkflowForCache of the request
  uint64_t context_hash = 0;   // HashRequestContext of everything else

  friend bool operator==(const PlanCacheKey& a, const PlanCacheKey& b) {
    return a.workflow_hash == b.workflow_hash &&
           a.context_hash == b.context_hash;
  }
};

/// Shard hash: splitmix-style finalizer over the two halves.
struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& key) const {
    uint64_t h = key.workflow_hash + 0x9e3779b97f4a7c15ull;
    h ^= key.context_hash + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

/// Content-inclusive workflow hash for cache keys: FNV-64 over the
/// canonical workflow text (plabels included), so workflows that share a
/// signature SHAPE but differ in schemas/cardinalities/functions — and
/// therefore in optimal plan — never share a cache slot. Unprintable
/// workflows (merged chains) fall back to the domain-separated
/// structural hash.
uint64_t HashWorkflowForCache(const Workflow& workflow);

/// FNV-64 over the canonical request context.
uint64_t HashRequestContext(std::string_view algorithm,
                            std::string_view model_fingerprint,
                            std::string_view options_fingerprint,
                            std::string_view merges_canonical);

/// Builds the cache key for one request. Refreshes a stale workflow copy
/// to compute its signature hash.
StatusOr<PlanCacheKey> MakePlanCacheKey(
    const Workflow& workflow, SearchAlgorithm algorithm,
    const CostModel& model, const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints);

/// One cached answer: the search result served verbatim (cached responses
/// must be byte-identical to fresh ones) plus its serialized plan for
/// persistence. `persistable` is false when the workflows cannot be
/// printed (merged chains) — such entries still serve from memory but are
/// skipped by SavePlans.
struct CachedPlan {
  SearchResult result;
  OptimizedPlan plan;
  bool persistable = true;
  size_t bytes = 0;  // cache charge (plan text + in-memory workflow)
};

struct PlanCacheOptions {
  /// Shard count, rounded up to a power of two and clamped to >= 1.
  size_t shards = 8;
  /// Total byte budget across all shards; each shard evicts LRU past
  /// budget/shards. Entries bigger than a whole shard's budget are not
  /// cached at all (counted as oversized).
  size_t byte_budget = static_cast<size_t>(64) << 20;
};

class PlanCache
    : public ShardedCache<PlanCacheKey, CachedPlan, PlanCacheKeyHash> {
 public:
  explicit PlanCache(PlanCacheOptions options = {})
      : ShardedCache(options.shards, options.byte_budget) {}

  /// The serving entry point. On a hit returns the cached plan. On a miss
  /// the FIRST caller runs `compute` (with no cache locks held) and every
  /// concurrent caller with the same key blocks until that one search
  /// finishes, then shares its plan — the coalescing protocol. A failed
  /// compute is propagated to all waiters and nothing is cached, so the
  /// next request retries.
  StatusOr<std::shared_ptr<const CachedPlan>> GetOrCompute(
      const PlanCacheKey& key,
      const std::function<StatusOr<std::shared_ptr<const CachedPlan>>()>&
          compute,
      bool* cache_hit = nullptr, bool* coalesced = nullptr);
};

}  // namespace etlopt

#endif  // ETLOPT_SERVICE_PLAN_CACHE_H_
