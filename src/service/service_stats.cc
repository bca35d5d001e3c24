#include "service/service_stats.h"

#include "common/string_util.h"

namespace etlopt {

std::string ServiceStatsReport(const ServiceStats& stats) {
  std::string out = "optimizer service\n";
  auto row = [&out](const char* name, const std::string& value) {
    out += StrFormat("  %-22s %s\n", name, value.c_str());
  };
  row("requests", StrFormat("%llu (%llu rejected, %llu uncacheable)",
                            static_cast<unsigned long long>(stats.requests),
                            static_cast<unsigned long long>(stats.rejected),
                            static_cast<unsigned long long>(
                                stats.uncacheable)));
  row("searches run",
      StrFormat("%llu (%llu failed, %llu retries, %.1f ms total)",
                static_cast<unsigned long long>(stats.searches_run),
                static_cast<unsigned long long>(stats.failed_searches),
                static_cast<unsigned long long>(stats.search_retries),
                stats.search_millis));
  row("resilience",
      StrFormat("%llu degraded, %llu deadline-exceeded",
                static_cast<unsigned long long>(stats.degraded),
                static_cast<unsigned long long>(stats.deadline_exceeded)));
  row("breaker",
      StrFormat("%s (%llu trips, %llu rejections)",
                std::string(BreakerStateName(stats.breaker.state)).c_str(),
                static_cast<unsigned long long>(stats.breaker.trips),
                static_cast<unsigned long long>(stats.breaker.rejections)));
  row("queue", StrFormat("%zu in flight / %zu max, %zu workers",
                         stats.in_flight, stats.max_queue,
                         stats.worker_threads));
  const CacheStats& c = stats.cache;
  row("plan cache hit rate",
      StrFormat("%.1f%% (%llu hits, %llu misses, %llu coalesced)",
                100.0 * c.hit_rate(),
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.coalesced)));
  row("plan cache size",
      StrFormat("%zu plans, %zu / %zu bytes over %zu shards", c.entries,
                c.bytes, c.byte_budget, c.shards));
  row("plan cache churn",
      StrFormat("%llu insertions, %llu evictions, %llu oversized",
                static_cast<unsigned long long>(c.insertions),
                static_cast<unsigned long long>(c.evictions),
                static_cast<unsigned long long>(c.oversized)));
  const CacheStats& r = stats.result_cache;
  row("result cache hit rate",
      StrFormat("%.1f%% (%llu hits, %llu misses, %llu coalesced, %llu busy)",
                100.0 * r.hit_rate(),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses),
                static_cast<unsigned long long>(r.coalesced),
                static_cast<unsigned long long>(r.busy)));
  row("result cache size",
      StrFormat("%zu results, %zu / %zu bytes over %zu shards", r.entries,
                r.bytes, r.byte_budget, r.shards));
  row("result cache churn",
      StrFormat("%llu insertions, %llu evictions, %llu oversized, "
                "%llu aborted",
                static_cast<unsigned long long>(r.insertions),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.oversized),
                static_cast<unsigned long long>(r.aborted)));
  return out;
}

}  // namespace etlopt
