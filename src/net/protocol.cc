#include "net/protocol.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

// SearchOptions booleans packed into one byte. num_threads is
// intentionally absent (see the header).
constexpr uint8_t kPhase1Bit = 1 << 0;
constexpr uint8_t kFactorizeBit = 1 << 1;
constexpr uint8_t kDistributeBit = 1 << 2;
constexpr uint8_t kPhase4Bit = 1 << 3;

void PutSearchOptions(std::string& out, const SearchOptions& options) {
  PutU64(out, options.max_states);
  PutU64(out, static_cast<uint64_t>(options.max_millis));
  PutU64(out, options.max_states_per_group);
  PutU64(out, options.max_phase3_states);
  PutU64(out, options.max_phase4_states);
  uint8_t flags = 0;
  if (options.enable_phase1_sweep) flags |= kPhase1Bit;
  if (options.enable_factorize) flags |= kFactorizeBit;
  if (options.enable_distribute) flags |= kDistributeBit;
  if (options.enable_phase4_resweep) flags |= kPhase4Bit;
  out.push_back(static_cast<char>(flags));
}

StatusOr<SearchOptions> ReadSearchOptions(BinaryReader& reader) {
  SearchOptions options;
  ETLOPT_ASSIGN_OR_RETURN(options.max_states, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint64_t max_millis, reader.U64());
  options.max_millis = static_cast<int64_t>(max_millis);
  ETLOPT_ASSIGN_OR_RETURN(options.max_states_per_group, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(options.max_phase3_states, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(options.max_phase4_states, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint8_t flags, reader.U8());
  if (flags > (kPhase1Bit | kFactorizeBit | kDistributeBit | kPhase4Bit)) {
    return Status::InvalidArgument("net: bad search-option flags");
  }
  options.enable_phase1_sweep = (flags & kPhase1Bit) != 0;
  options.enable_factorize = (flags & kFactorizeBit) != 0;
  options.enable_distribute = (flags & kDistributeBit) != 0;
  options.enable_phase4_resweep = (flags & kPhase4Bit) != 0;
  return options;
}

constexpr uint8_t kCacheHitBit = 1 << 0;
constexpr uint8_t kCoalescedBit = 1 << 1;
constexpr uint8_t kDegradedBit = 1 << 2;

Status CheckAtEnd(const BinaryReader& reader, const char* what) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("net: trailing bytes after %s", what));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeOptimizeRequest(const NetOptimizeRequest& request) {
  std::string out;
  PutString(out, request.workflow_text);
  PutString(out, SearchAlgorithmToString(request.algorithm));
  PutSearchOptions(out, request.options);
  PutU32(out, static_cast<uint32_t>(request.merge_constraints.size()));
  for (const MergeConstraint& constraint : request.merge_constraints) {
    PutString(out, constraint.first_label);
    PutString(out, constraint.second_label);
  }
  PutU64(out, static_cast<uint64_t>(request.deadline_millis));
  return out;
}

StatusOr<NetOptimizeRequest> DecodeOptimizeRequest(
    std::string_view payload) {
  BinaryReader reader(payload);
  NetOptimizeRequest request;
  ETLOPT_ASSIGN_OR_RETURN(request.workflow_text, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(std::string algorithm, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(request.algorithm,
                          SearchAlgorithmFromString(algorithm));
  ETLOPT_ASSIGN_OR_RETURN(request.options, ReadSearchOptions(reader));
  ETLOPT_ASSIGN_OR_RETURN(uint32_t merges, reader.U32());
  // Each constraint takes at least 8 bytes (two length prefixes), so a
  // corrupt count cannot force a huge reserve.
  request.merge_constraints.reserve(
      std::min<size_t>(merges, reader.remaining() / 8));
  for (uint32_t i = 0; i < merges; ++i) {
    MergeConstraint constraint;
    ETLOPT_ASSIGN_OR_RETURN(constraint.first_label, reader.String());
    ETLOPT_ASSIGN_OR_RETURN(constraint.second_label, reader.String());
    request.merge_constraints.push_back(std::move(constraint));
  }
  ETLOPT_ASSIGN_OR_RETURN(uint64_t deadline, reader.U64());
  request.deadline_millis = static_cast<int64_t>(deadline);
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "optimize request"));
  return request;
}

std::string EncodeOptimizeResponse(const NetOptimizeResponse& response) {
  std::string out;
  uint8_t flags = 0;
  if (response.cache_hit) flags |= kCacheHitBit;
  if (response.coalesced) flags |= kCoalescedBit;
  if (response.degraded) flags |= kDegradedBit;
  out.push_back(static_cast<char>(flags));
  PutDouble(out, response.server_millis);
  PutString(out, SerializePlanBinary(response.plan));
  return out;
}

StatusOr<NetOptimizeResponse> DecodeOptimizeResponse(
    std::string_view payload) {
  BinaryReader reader(payload);
  NetOptimizeResponse response;
  ETLOPT_ASSIGN_OR_RETURN(uint8_t flags, reader.U8());
  if (flags > (kCacheHitBit | kCoalescedBit | kDegradedBit)) {
    return Status::InvalidArgument("net: bad optimize-response flags");
  }
  response.cache_hit = (flags & kCacheHitBit) != 0;
  response.coalesced = (flags & kCoalescedBit) != 0;
  response.degraded = (flags & kDegradedBit) != 0;
  ETLOPT_ASSIGN_OR_RETURN(response.server_millis, ReadDouble(reader));
  ETLOPT_ASSIGN_OR_RETURN(std::string plan_bytes, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(response.plan, ParsePlanBinary(plan_bytes));
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "optimize response"));
  return response;
}

std::string EncodeStatsResponse(const NetStatsResponse& stats) {
  std::string out;
  const CacheStats& cache = stats.service.cache;
  PutU64(out, cache.hits);
  PutU64(out, cache.misses);
  PutU64(out, cache.coalesced);
  PutU64(out, cache.insertions);
  PutU64(out, cache.evictions);
  PutU64(out, cache.oversized);
  PutU64(out, cache.entries);
  PutU64(out, cache.bytes);
  PutU64(out, cache.byte_budget);
  PutU64(out, cache.shards);
  const CacheStats& rcache = stats.service.result_cache;
  PutU64(out, rcache.hits);
  PutU64(out, rcache.misses);
  PutU64(out, rcache.coalesced);
  PutU64(out, rcache.busy);
  PutU64(out, rcache.insertions);
  PutU64(out, rcache.evictions);
  PutU64(out, rcache.oversized);
  PutU64(out, rcache.aborted);
  PutU64(out, rcache.entries);
  PutU64(out, rcache.bytes);
  PutU64(out, rcache.byte_budget);
  PutU64(out, rcache.shards);
  const ServiceStats& service = stats.service;
  PutU64(out, service.requests);
  PutU64(out, service.rejected);
  PutU64(out, service.uncacheable);
  PutU64(out, service.searches_run);
  PutU64(out, service.failed_searches);
  PutU64(out, service.search_retries);
  PutU64(out, service.degraded);
  PutU64(out, service.deadline_exceeded);
  PutDouble(out, service.search_millis);
  out.push_back(static_cast<char>(service.breaker.state));
  PutU64(out, service.breaker.trips);
  PutU64(out, service.breaker.rejections);
  PutU64(out, static_cast<uint64_t>(service.breaker.consecutive_failures));
  PutU64(out, service.in_flight);
  PutU64(out, service.max_queue);
  PutU64(out, service.worker_threads);
  const NetServerStats& server = stats.server;
  PutU64(out, server.connections_accepted);
  PutU64(out, server.connections_rejected);
  PutU64(out, server.requests_served);
  PutU64(out, server.requests_shed);
  PutU64(out, server.bad_frames);
  PutU64(out, server.active_connections);
  out.push_back(server.draining ? 1 : 0);
  return out;
}

StatusOr<NetStatsResponse> DecodeStatsResponse(std::string_view payload) {
  BinaryReader reader(payload);
  NetStatsResponse stats;
  CacheStats& cache = stats.service.cache;
  ETLOPT_ASSIGN_OR_RETURN(cache.hits, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.misses, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.coalesced, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.insertions, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.evictions, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.oversized, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.entries, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.bytes, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.byte_budget, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(cache.shards, reader.U64());
  CacheStats& rcache = stats.service.result_cache;
  ETLOPT_ASSIGN_OR_RETURN(rcache.hits, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.misses, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.coalesced, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.busy, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.insertions, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.evictions, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.oversized, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.aborted, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.entries, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.bytes, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.byte_budget, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(rcache.shards, reader.U64());
  ServiceStats& service = stats.service;
  ETLOPT_ASSIGN_OR_RETURN(service.requests, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.rejected, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.uncacheable, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.searches_run, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.failed_searches, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.search_retries, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.degraded, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.deadline_exceeded, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.search_millis, ReadDouble(reader));
  ETLOPT_ASSIGN_OR_RETURN(uint8_t state, reader.U8());
  if (state > static_cast<uint8_t>(BreakerState::kHalfOpen)) {
    return Status::InvalidArgument("net: bad breaker state");
  }
  service.breaker.state = static_cast<BreakerState>(state);
  ETLOPT_ASSIGN_OR_RETURN(service.breaker.trips, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.breaker.rejections, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint64_t failures, reader.U64());
  service.breaker.consecutive_failures = static_cast<int>(failures);
  ETLOPT_ASSIGN_OR_RETURN(service.in_flight, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.max_queue, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(service.worker_threads, reader.U64());
  NetServerStats& server = stats.server;
  ETLOPT_ASSIGN_OR_RETURN(server.connections_accepted, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(server.connections_rejected, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(server.requests_served, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(server.requests_shed, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(server.bad_frames, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(server.active_connections, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint8_t draining, reader.U8());
  if (draining > 1) {
    return Status::InvalidArgument("net: bad draining flag");
  }
  server.draining = draining == 1;
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "stats response"));
  return stats;
}

std::string EncodeSavePlansRequest(const NetSavePlansRequest& request) {
  std::string out;
  PutString(out, request.path);
  out.push_back(request.binary ? 1 : 0);
  return out;
}

StatusOr<NetSavePlansRequest> DecodeSavePlansRequest(
    std::string_view payload) {
  BinaryReader reader(payload);
  NetSavePlansRequest request;
  ETLOPT_ASSIGN_OR_RETURN(request.path, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(uint8_t binary, reader.U8());
  if (binary > 1) {
    return Status::InvalidArgument("net: bad save-plans format flag");
  }
  request.binary = binary == 1;
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "save-plans request"));
  return request;
}

std::string EncodeHealthResponse(const NetHealthResponse& health) {
  std::string out;
  out.push_back(health.serving ? 1 : 0);
  PutString(out, health.message);
  return out;
}

StatusOr<NetHealthResponse> DecodeHealthResponse(std::string_view payload) {
  BinaryReader reader(payload);
  NetHealthResponse health;
  ETLOPT_ASSIGN_OR_RETURN(uint8_t serving, reader.U8());
  if (serving > 1) {
    return Status::InvalidArgument("net: bad health serving flag");
  }
  health.serving = serving == 1;
  ETLOPT_ASSIGN_OR_RETURN(health.message, reader.String());
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "health response"));
  return health;
}

std::string EncodeStatusPayload(const Status& status) {
  std::string out;
  PutU32(out, static_cast<uint32_t>(status.code()));
  PutString(out, status.message());
  return out;
}

Status DecodeStatusPayload(std::string_view payload) {
  BinaryReader reader(payload);
  ETLOPT_ASSIGN_OR_RETURN(uint32_t code, reader.U32());
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("net: bad status code in error frame");
  }
  ETLOPT_ASSIGN_OR_RETURN(std::string message, reader.String());
  ETLOPT_RETURN_NOT_OK(CheckAtEnd(reader, "error response"));
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace etlopt
