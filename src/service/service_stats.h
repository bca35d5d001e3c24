// Observability snapshot of the optimizer service: cache behavior, queue
// pressure, and search work, with the same human-readable report styling
// as the optimizer's report layer.

#ifndef ETLOPT_SERVICE_SERVICE_STATS_H_
#define ETLOPT_SERVICE_SERVICE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/circuit_breaker.h"
#include "service/sharded_cache.h"

namespace etlopt {

/// Point-in-time counters of the whole service (caches included).
struct ServiceStats {
  /// The plan cache. Its busy and aborted counters are not encoded or
  /// reported: a plan-cache waiter is always answered by the search it
  /// waited on, and a failed search counts in failed_searches.
  CacheStats cache;
  /// The shared intermediate-result cache attached to the service (see
  /// OptimizerService::AttachResultCache); all-zero when none is.
  CacheStats result_cache;
  uint64_t requests = 0;          // accepted (queued or run inline)
  uint64_t rejected = 0;          // ResourceExhausted: queue full
  uint64_t uncacheable = 0;       // answered, but result not cacheable
  uint64_t searches_run = 0;      // actual optimizer invocations
  uint64_t failed_searches = 0;   // requests whose search failed for good
  uint64_t search_retries = 0;    // transient failures absorbed by retry
  uint64_t degraded = 0;          // answered by the greedy fallback
  uint64_t deadline_exceeded = 0; // requests that ran out of budget
  double search_millis = 0;       // wall-clock spent inside searches
  CircuitBreakerStats breaker;
  size_t in_flight = 0;           // gauge: queued + running right now
  size_t max_queue = 0;
  size_t worker_threads = 0;
};

/// Renders the snapshot as an aligned table (report-layer style).
std::string ServiceStatsReport(const ServiceStats& stats);

}  // namespace etlopt

#endif  // ETLOPT_SERVICE_SERVICE_STATS_H_
