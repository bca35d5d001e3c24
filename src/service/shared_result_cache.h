// SharedResultCache: materialized intermediate results shared across
// concurrent workflow executions.
//
// A multi-tenant optimizer+executor service sees many workflows built
// from the same backbone of entity-changing stages over the same source
// extracts. Each entry here is one materialized subgraph output — the
// rows leaving a cacheable cut point — keyed by its subgraph result
// signature (graph/subgraph_signature.h), which two nodes share iff
// their upstream subtrees produce byte-identical rows over the bound
// inputs. A tenant that finds an entry skips executing the entire
// upstream cone; a tenant that misses executes it once and publishes for
// everyone else.
//
// Entries live in a ShardedCache (service/sharded_cache.h) keyed by
// signature. Sharing runs on its lease protocol rather than a compute
// callback, because an executor discovers its cut points mid-run and
// cannot package "execute this subtree" as a closure. Executors pass
// may_wait only while holding no leases of their own, so waits cannot
// deadlock. An aborted lease wakes all waiters with kBusy: cache failure
// degrades to recomputation, never to an error.

#ifndef ETLOPT_SERVICE_SHARED_RESULT_CACHE_H_
#define ETLOPT_SERVICE_SHARED_RESULT_CACHE_H_

#include <cstdint>
#include <vector>

#include "records/record.h"
#include "service/sharded_cache.h"

namespace etlopt {

/// One materialized subgraph output: the cut node's rows plus the
/// rows_out bookkeeping of every activity node in its upstream cone, in
/// the canonical SubtreeNodes() order — positional, so a consumer in a
/// DIFFERENT workflow (different NodeIds, same signature) can transfer
/// it into its own ExecutionResult.
struct CachedSubgraphResult {
  std::vector<Record> rows;
  std::vector<size_t> subtree_rows_out;
  /// Cache charge, set by the publisher (ApproxRowsBytes + bookkeeping).
  size_t bytes = 0;
};

/// Deterministic in-memory size estimate used for the byte budget.
size_t ApproxRowsBytes(const std::vector<Record>& rows);

struct SharedResultCacheOptions {
  /// Shard count, rounded up to a power of two and clamped to >= 1.
  size_t shards = 8;
  /// Total byte budget; each shard evicts LRU past budget/shards.
  /// Entries bigger than a whole shard's budget are never cached
  /// (counted as oversized) — but waiters coalescing on their flight
  /// still receive the value.
  size_t byte_budget = static_cast<size_t>(256) << 20;
};

/// The result cache's counters (the name the benches and tests read).
using ResultCacheStats = CacheStats;

/// splitmix-style finalizer: signatures are already well-mixed FNV
/// hashes, but shard selection uses the low bits, so re-mix defensively.
struct MixSignature {
  size_t operator()(uint64_t sig) const {
    uint64_t h = sig + 0x9e3779b97f4a7c15ull;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

class SharedResultCache
    : public ShardedCache<uint64_t, CachedSubgraphResult, MixSignature> {
 public:
  explicit SharedResultCache(SharedResultCacheOptions options = {})
      : ShardedCache(options.shards, options.byte_budget) {}

  /// Releases the caller's lease without a value (the compute failed or
  /// was skipped); waiters wake with kBusy and fall back to recompute.
  void Abort(uint64_t signature) {
    ShardedCache::Abort(signature, Status::OK());
  }
};

}  // namespace etlopt

#endif  // ETLOPT_SERVICE_SHARED_RESULT_CACHE_H_
