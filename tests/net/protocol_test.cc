// Wire-protocol payload encodings: field-for-field round trips for
// every message type, and defensive decoding (truncation at every
// prefix, trailing bytes, out-of-range enums) for each.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "io/text_format.h"
#include "service/optimizer_service.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

NetOptimizeRequest SampleRequest() {
  NetOptimizeRequest request;
  request.workflow_text = "workflow sample { /* not parsed here */ }";
  request.algorithm = SearchAlgorithm::kExhaustive;
  request.options.max_states = 1234;
  request.options.max_millis = 567;
  request.options.max_states_per_group = 89;
  request.options.enable_phase1_sweep = false;
  request.options.enable_factorize = true;
  request.options.enable_distribute = false;
  request.options.enable_phase4_resweep = true;
  request.options.max_phase3_states = 21;
  request.options.max_phase4_states = 34;
  MergeConstraint merge;
  merge.first_label = "extract_a";
  merge.second_label = "join_b";
  request.merge_constraints.push_back(merge);
  request.deadline_millis = 2500;
  return request;
}

TEST(ProtocolTest, OptimizeRequestRoundTrips) {
  NetOptimizeRequest request = SampleRequest();
  auto decoded = DecodeOptimizeRequest(EncodeOptimizeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->workflow_text, request.workflow_text);
  EXPECT_EQ(decoded->algorithm, request.algorithm);
  EXPECT_EQ(decoded->options.max_states, request.options.max_states);
  EXPECT_EQ(decoded->options.max_millis, request.options.max_millis);
  EXPECT_EQ(decoded->options.max_states_per_group,
            request.options.max_states_per_group);
  EXPECT_EQ(decoded->options.enable_phase1_sweep,
            request.options.enable_phase1_sweep);
  EXPECT_EQ(decoded->options.enable_factorize,
            request.options.enable_factorize);
  EXPECT_EQ(decoded->options.enable_distribute,
            request.options.enable_distribute);
  EXPECT_EQ(decoded->options.enable_phase4_resweep,
            request.options.enable_phase4_resweep);
  EXPECT_EQ(decoded->options.max_phase3_states,
            request.options.max_phase3_states);
  EXPECT_EQ(decoded->options.max_phase4_states,
            request.options.max_phase4_states);
  ASSERT_EQ(decoded->merge_constraints.size(), 1u);
  EXPECT_EQ(decoded->merge_constraints[0].first_label, "extract_a");
  EXPECT_EQ(decoded->merge_constraints[0].second_label, "join_b");
  EXPECT_EQ(decoded->deadline_millis, request.deadline_millis);
}

TEST(ProtocolTest, OptimizeResponseRoundTripsWithRealPlan) {
  // A real optimized plan, so the embedded ETLPLAN1 bytes are exercised
  // end to end rather than with a synthetic stub.
  GeneratorOptions gen;
  gen.seed = 11;
  auto generated = GenerateWorkflow(gen);
  ASSERT_TRUE(generated.ok());
  LinearLogCostModel model;
  OptimizerService service(model);
  OptimizeRequest request;
  request.workflow = std::move(generated->workflow);
  request.options.max_states = 2000;
  auto served = service.Optimize(std::move(request));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->plan->persistable);

  NetOptimizeResponse response;
  response.plan = served->plan->plan;
  response.cache_hit = true;
  response.degraded = true;
  response.server_millis = 12.75;
  auto decoded = DecodeOptimizeResponse(EncodeOptimizeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_FALSE(decoded->coalesced);
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->server_millis, 12.75);
  // Byte identity of the carried plan.
  EXPECT_EQ(PrintPlanText(decoded->plan), PrintPlanText(response.plan));
  EXPECT_EQ(SerializePlanBinary(decoded->plan),
            SerializePlanBinary(response.plan));
}

TEST(ProtocolTest, StatsResponseRoundTrips) {
  NetStatsResponse stats;
  stats.service.requests = 101;
  stats.service.rejected = 7;
  stats.service.searches_run = 44;
  stats.service.failed_searches = 3;
  stats.service.search_millis = 123.5;
  stats.service.search_retries = 9;
  stats.service.degraded = 2;
  stats.service.deadline_exceeded = 5;
  stats.service.uncacheable = 1;
  stats.service.in_flight = 6;
  stats.service.max_queue = 256;
  stats.service.worker_threads = 8;
  stats.service.cache.hits = 90;
  stats.service.cache.misses = 11;
  stats.service.cache.coalesced = 4;
  stats.service.cache.insertions = 15;
  stats.service.cache.evictions = 2;
  stats.service.cache.oversized = 1;
  stats.service.cache.entries = 9;
  stats.service.cache.bytes = 4096;
  stats.service.cache.byte_budget = 1 << 20;
  stats.service.cache.shards = 16;
  stats.service.result_cache.hits = 77;
  stats.service.result_cache.misses = 23;
  stats.service.result_cache.coalesced = 6;
  stats.service.result_cache.busy = 3;
  stats.service.result_cache.insertions = 19;
  stats.service.result_cache.evictions = 4;
  stats.service.result_cache.oversized = 2;
  stats.service.result_cache.aborted = 1;
  stats.service.result_cache.entries = 14;
  stats.service.result_cache.bytes = 8192;
  stats.service.result_cache.byte_budget = 1 << 22;
  stats.service.result_cache.shards = 8;
  stats.service.breaker.state = BreakerState::kHalfOpen;
  stats.service.breaker.trips = 3;
  stats.service.breaker.rejections = 8;
  stats.service.breaker.consecutive_failures = 12;
  stats.server.connections_accepted = 17;
  stats.server.connections_rejected = 2;
  stats.server.requests_served = 99;
  stats.server.requests_shed = 13;
  stats.server.bad_frames = 1;
  stats.server.active_connections = 5;
  stats.server.draining = true;

  auto decoded = DecodeStatsResponse(EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->service.requests, 101u);
  EXPECT_EQ(decoded->service.rejected, 7u);
  EXPECT_EQ(decoded->service.searches_run, 44u);
  EXPECT_EQ(decoded->service.failed_searches, 3u);
  EXPECT_EQ(decoded->service.search_millis, 123.5);
  EXPECT_EQ(decoded->service.search_retries, 9u);
  EXPECT_EQ(decoded->service.degraded, 2u);
  EXPECT_EQ(decoded->service.deadline_exceeded, 5u);
  EXPECT_EQ(decoded->service.uncacheable, 1u);
  EXPECT_EQ(decoded->service.in_flight, 6u);
  EXPECT_EQ(decoded->service.max_queue, 256u);
  EXPECT_EQ(decoded->service.worker_threads, 8u);
  EXPECT_EQ(decoded->service.cache.hits, 90u);
  EXPECT_EQ(decoded->service.cache.misses, 11u);
  EXPECT_EQ(decoded->service.cache.coalesced, 4u);
  EXPECT_EQ(decoded->service.cache.insertions, 15u);
  EXPECT_EQ(decoded->service.cache.evictions, 2u);
  EXPECT_EQ(decoded->service.cache.oversized, 1u);
  EXPECT_EQ(decoded->service.cache.entries, 9u);
  EXPECT_EQ(decoded->service.cache.bytes, 4096u);
  EXPECT_EQ(decoded->service.cache.byte_budget, 1u << 20);
  EXPECT_EQ(decoded->service.cache.shards, 16u);
  EXPECT_EQ(decoded->service.result_cache.hits, 77u);
  EXPECT_EQ(decoded->service.result_cache.misses, 23u);
  EXPECT_EQ(decoded->service.result_cache.coalesced, 6u);
  EXPECT_EQ(decoded->service.result_cache.busy, 3u);
  EXPECT_EQ(decoded->service.result_cache.insertions, 19u);
  EXPECT_EQ(decoded->service.result_cache.evictions, 4u);
  EXPECT_EQ(decoded->service.result_cache.oversized, 2u);
  EXPECT_EQ(decoded->service.result_cache.aborted, 1u);
  EXPECT_EQ(decoded->service.result_cache.entries, 14u);
  EXPECT_EQ(decoded->service.result_cache.bytes, 8192u);
  EXPECT_EQ(decoded->service.result_cache.byte_budget, 1u << 22);
  EXPECT_EQ(decoded->service.result_cache.shards, 8u);
  EXPECT_EQ(decoded->service.breaker.state, BreakerState::kHalfOpen);
  EXPECT_EQ(decoded->service.breaker.trips, 3u);
  EXPECT_EQ(decoded->service.breaker.rejections, 8u);
  EXPECT_EQ(decoded->service.breaker.consecutive_failures, 12);
  EXPECT_EQ(decoded->server.connections_accepted, 17u);
  EXPECT_EQ(decoded->server.connections_rejected, 2u);
  EXPECT_EQ(decoded->server.requests_served, 99u);
  EXPECT_EQ(decoded->server.requests_shed, 13u);
  EXPECT_EQ(decoded->server.bad_frames, 1u);
  EXPECT_EQ(decoded->server.active_connections, 5u);
  EXPECT_TRUE(decoded->server.draining);
}

TEST(ProtocolTest, StatsResponseBytesAreGolden) {
  // Every counter gets a distinct value; the expected payload lists them
  // in wire order as little-endian u64s (the breaker state and draining
  // flag are single bytes). Pins the layout: the plan-cache section is
  // ten fields and carries no busy/aborted counters.
  NetStatsResponse stats;
  auto& cache = stats.service.cache;
  cache.hits = 0x1001;
  cache.misses = 0x1002;
  cache.coalesced = 0x1003;
  cache.insertions = 0x1004;
  cache.evictions = 0x1005;
  cache.oversized = 0x1006;
  cache.entries = 0x1007;
  cache.bytes = 0x1008;
  cache.byte_budget = 0x1009;
  cache.shards = 0x100a;
  cache.busy = 0x10fe;     // not on the wire for the plan cache
  cache.aborted = 0x10ff;
  auto& rcache = stats.service.result_cache;
  rcache.hits = 0x2001;
  rcache.misses = 0x2002;
  rcache.coalesced = 0x2003;
  rcache.busy = 0x2004;
  rcache.insertions = 0x2005;
  rcache.evictions = 0x2006;
  rcache.oversized = 0x2007;
  rcache.aborted = 0x2008;
  rcache.entries = 0x2009;
  rcache.bytes = 0x200a;
  rcache.byte_budget = 0x200b;
  rcache.shards = 0x200c;
  ServiceStats& service = stats.service;
  service.requests = 0x3001;
  service.rejected = 0x3002;
  service.uncacheable = 0x3003;
  service.searches_run = 0x3004;
  service.failed_searches = 0x3005;
  service.search_retries = 0x3006;
  service.degraded = 0x3007;
  service.deadline_exceeded = 0x3008;
  service.search_millis = 0.5;
  service.breaker.state = BreakerState::kOpen;
  service.breaker.trips = 0x4001;
  service.breaker.rejections = 0x4002;
  service.breaker.consecutive_failures = 0x4003;
  service.in_flight = 0x3009;
  service.max_queue = 0x300a;
  service.worker_threads = 0x300b;
  stats.server.connections_accepted = 0x5001;
  stats.server.connections_rejected = 0x5002;
  stats.server.requests_served = 0x5003;
  stats.server.requests_shed = 0x5004;
  stats.server.bad_frames = 0x5005;
  stats.server.active_connections = 0x5006;
  stats.server.draining = true;

  std::string golden;
  auto u64s = [&golden](std::initializer_list<uint64_t> values) {
    for (uint64_t v : values) {
      for (int i = 0; i < 8; ++i) {
        golden.push_back(static_cast<char>(v >> (8 * i)));
      }
    }
  };
  u64s({0x1001, 0x1002, 0x1003, 0x1004, 0x1005, 0x1006, 0x1007, 0x1008,
        0x1009, 0x100a});
  u64s({0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006, 0x2007, 0x2008,
        0x2009, 0x200a, 0x200b, 0x200c});
  u64s({0x3001, 0x3002, 0x3003, 0x3004, 0x3005, 0x3006, 0x3007, 0x3008});
  u64s({0x3fe0000000000000});  // search_millis = 0.5
  golden.push_back(static_cast<char>(BreakerState::kOpen));
  u64s({0x4001, 0x4002, 0x4003, 0x3009, 0x300a, 0x300b});
  u64s({0x5001, 0x5002, 0x5003, 0x5004, 0x5005, 0x5006});
  golden.push_back(1);

  EXPECT_EQ(EncodeStatsResponse(stats), golden);
  auto decoded = DecodeStatsResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeStatsResponse(*decoded), golden);
  EXPECT_EQ(decoded->service.cache.busy, 0u);
  EXPECT_EQ(decoded->service.cache.aborted, 0u);
}

TEST(ProtocolTest, SavePlansAndHealthRoundTrip) {
  NetSavePlansRequest save;
  save.path = "/tmp/plans.bin";
  save.binary = false;
  auto decoded_save = DecodeSavePlansRequest(EncodeSavePlansRequest(save));
  ASSERT_TRUE(decoded_save.ok());
  EXPECT_EQ(decoded_save->path, save.path);
  EXPECT_FALSE(decoded_save->binary);

  NetHealthResponse health;
  health.serving = false;
  health.message = "draining";
  auto decoded_health =
      DecodeHealthResponse(EncodeHealthResponse(health));
  ASSERT_TRUE(decoded_health.ok());
  EXPECT_FALSE(decoded_health->serving);
  EXPECT_EQ(decoded_health->message, "draining");
}

TEST(ProtocolTest, StatusPayloadRoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kUnavailable,
        StatusCode::kIOError, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded}) {
    Status original(code, "message for code");
    Status decoded = DecodeStatusPayload(EncodeStatusPayload(original));
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(ProtocolTest, StatusPayloadRejectsOkAndOutOfRangeCodes) {
  // An error frame carrying "OK" is nonsense; so is an unknown code.
  Status ok_code = DecodeStatusPayload(EncodeStatusPayload(Status::OK()));
  EXPECT_TRUE(ok_code.IsInvalidArgument()) << ok_code.ToString();

  std::string bytes = EncodeStatusPayload(Status::Internal("x"));
  bytes[0] = 99;
  EXPECT_TRUE(DecodeStatusPayload(bytes).IsInvalidArgument());
}

TEST(ProtocolTest, EveryPayloadRejectsTruncationAndTrailingBytes) {
  // Each payload against its own decoder: every strict prefix must be
  // rejected. (A prefix may happen to decode as some OTHER message type;
  // the frame type byte is what keeps decoders from being mixed up.)
  auto sweep = [](const std::string& payload, auto decode,
                  const char* what) {
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(decode(std::string_view(payload.data(), len)))
          << what << " decoded a " << len << "-byte prefix";
    }
    EXPECT_FALSE(decode(payload + "!")) << what << " allowed trailing bytes";
  };
  sweep(EncodeOptimizeRequest(SampleRequest()),
        [](std::string_view b) { return DecodeOptimizeRequest(b).ok(); },
        "optimize request");
  sweep(EncodeSavePlansRequest({"/tmp/p", true}),
        [](std::string_view b) { return DecodeSavePlansRequest(b).ok(); },
        "save-plans request");
  sweep(EncodeHealthResponse({true, "ok"}),
        [](std::string_view b) { return DecodeHealthResponse(b).ok(); },
        "health response");
  sweep(EncodeStatsResponse({}),
        [](std::string_view b) { return DecodeStatsResponse(b).ok(); },
        "stats response");
  sweep(EncodeStatusPayload(Status::Internal("boom")),
        [](std::string_view b) { return DecodeStatusPayload(b).ok(); },
        "status payload");
}

TEST(ProtocolTest, RejectsOutOfRangeEnumsInRequest) {
  std::string bytes = EncodeOptimizeRequest(SampleRequest());
  // The algorithm enum is the first encoded field after the workflow
  // text; corrupting it must be caught by range checks, not cast blindly.
  // Find it by re-encoding with a different algorithm and diffing.
  NetOptimizeRequest other = SampleRequest();
  other.algorithm = SearchAlgorithm::kHeuristic;
  std::string other_bytes = EncodeOptimizeRequest(other);
  ASSERT_EQ(bytes.size(), other_bytes.size());
  size_t pos = 0;
  while (pos < bytes.size() && bytes[pos] == other_bytes[pos]) ++pos;
  ASSERT_LT(pos, bytes.size());
  bytes[pos] = 117;
  EXPECT_FALSE(DecodeOptimizeRequest(bytes).ok());
}

}  // namespace
}  // namespace etlopt
