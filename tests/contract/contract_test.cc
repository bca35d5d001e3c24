// The correctness-contract harness: any engine x any thread, batch or
// partition count x cache on or off x any fault schedule => the serial
// reference's bytes, or a clean Status.
//
// MakeCells() below is the whole matrix. A cell names a set of cases
// (seeded generator workflows, initial and HS-optimized, and hand-built
// flows), the engine configurations that run them and the fault
// schedule they run under. Every run is held to the serial engine's result on the same case
// by SameRun (contract.h): exactly for the serial and vectorized engines,
// the recoverable executor and the result cache, and as a multiset per
// target for the stream, whose micro-batch interleaving may reorder a
// union's rows. Each cell is its own test, registered under the name of
// the test it carries on, so ctest -j spreads the cells and a failure
// names its cell and, in the message, the case and configuration.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "activity/templates.h"
#include "common/macros.h"
#include "contract/contract.h"
#include "cost/cost_model.h"
#include "cost/state_cost.h"
#include "engine/recovery.h"
#include "engine/vectorized.h"
#include "fault/fault_injector.h"
#include "io/plan_format.h"
#include "io/text_format.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/search.h"
#include "service/shared_result_cache.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

// ---- cases ----------------------------------------------------------------

struct Case {
  std::string label;
  Workflow workflow;
  ExecutionInput input;
  /// Recovery points for configurations that checkpoint by plan.
  RecoveryPointPlan plan;
  /// Target -> row count the serial reference must load (pins the
  /// reference itself where the other engines alone could not).
  std::map<std::string, size_t> expected_rows;
};
using Cases = std::vector<Case>;
using CaseFn = std::function<Cases()>;

CaseFn Fig1(uint64_t seed, size_t rows) {
  return [=] {
    auto s = BuildFig1Scenario();
    ETLOPT_CHECK_OK(s.status());
    Cases out(1);
    out[0].label = "fig1";
    out[0].workflow = std::move(s->workflow);
    out[0].input = MakeFig1Input(seed, rows);
    return out;
  };
}

CaseFn Fig4(uint64_t seed, size_t rows) {
  return [=] {
    auto s = BuildFig4Scenario();
    ETLOPT_CHECK_OK(s.status());
    Cases out(1);
    out[0].label = "fig4";
    out[0].workflow = std::move(s->workflow);
    out[0].input = MakeFig4Input(seed, rows);
    return out;
  };
}

// Generated workflow `seed` of `category` over GenerateInputFor(input_seed,
// rows).
CaseFn Generated(WorkloadCategory category, uint64_t seed,
                 uint64_t input_seed, size_t rows,
                 bool with_event_time = false) {
  return [=] {
    GeneratorOptions options;
    options.category = category;
    options.seed = seed;
    options.with_event_time = with_event_time;
    auto g = GenerateWorkflow(options);
    ETLOPT_CHECK_OK(g.status());
    Cases out(1);
    out[0].label = std::string(WorkloadCategoryToString(category)) + "_" +
                   std::to_string(seed);
    out[0].workflow = std::move(g->workflow);
    out[0].input = GenerateInputFor(out[0].workflow, input_seed, rows);
    return out;
  };
}

CaseFn All(std::vector<CaseFn> parts) {
  return [=] {
    Cases out;
    for (const CaseFn& part : parts) {
      for (Case& c : part()) out.push_back(std::move(c));
    }
    return out;
  };
}

// Each case as the HS search leaves it, over the same input; with
// `keep_initial` the initial workflow stays in as well.
CaseFn Hs(CaseFn cases, bool keep_initial = true) {
  return [=] {
    Cases out;
    LinearLogCostModel model;
    for (Case& c : cases()) {
      auto r = HeuristicSearch(c.workflow, model);
      ETLOPT_CHECK_OK(r.status());
      Case hs{c.label + "_hs", r->best.workflow, c.input, {}, {}};
      if (keep_initial) out.push_back(std::move(c));
      out.push_back(std::move(hs));
    }
    return out;
  };
}

// L(K, A) join pk(R(K, B)) on K: duplicate build keys with differing
// payloads make keep-first observable; with `nulls`, NULL keys on both
// sides must never join.
CaseFn JoinWithPk(bool nulls) {
  return [=] {
    Schema left = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"A", DataType::kDouble}});
    Schema right = Schema::MakeOrDie({{"K", DataType::kInt64},
                                      {"B", DataType::kDouble}});
    Schema joined = Schema::MakeOrDie({{"K", DataType::kInt64},
                                       {"A", DataType::kDouble},
                                       {"B", DataType::kDouble}});
    Cases out(1);
    out[0].label = nulls ? "join_pk_nulls" : "join_pk";
    Workflow& w = out[0].workflow;
    NodeId l = w.AddRecordSet({"L", left, 1000});
    NodeId r = w.AddRecordSet({"R", right, 1000});
    NodeId pk = *w.AddActivity(*MakePrimaryKeyCheck("pk", {"K"}, 0.5), {r});
    NodeId j = *w.AddActivity(*MakeJoin("join", {"K"}, 1.0), {l, pk});
    NodeId tgt = w.AddRecordSet({"T", joined, 0});
    ETLOPT_CHECK_OK(w.Connect(j, tgt));
    ETLOPT_CHECK_OK(w.Finalize());
    ExecutionInput& input = out[0].input;
    for (int i = 0; i < 500; ++i) {
      const bool null_l = nulls && i % 11 == 0;
      const bool null_r = nulls && i % 13 == 0;
      input.source_data["L"].push_back(
          Record({null_l ? Value::Null() : Value::Int(i % 40),
                  Value::Double(i * 1.5)}));
      input.source_data["R"].push_back(
          Record({null_r ? Value::Null() : Value::Int(i % 25),
                  Value::Double(i * 2.0)}));
    }
    return out;
  };
}

// A difference and an intersection over overlapping bags with repeated
// rows (bag semantics is where a naive split goes wrong). `wide` adds a
// string column and the 300/200-row inputs; otherwise K only, 100 rows.
CaseFn SetOps(bool wide) {
  return [=] {
    Schema sch =
        wide ? Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"V", DataType::kString}})
             : Schema::MakeOrDie({{"K", DataType::kInt64}});
    Cases out;
    for (bool difference : {true, false}) {
      Case c;
      c.label = difference ? "difference" : "intersection";
      NodeId a = c.workflow.AddRecordSet({"A", sch, 100});
      NodeId b = c.workflow.AddRecordSet({"B", sch, 100});
      Activity op = difference ? *MakeDifference("diff", 0.5)
                               : *MakeIntersection("isect", 0.5);
      NodeId n = *c.workflow.AddActivity(op, {a, b});
      NodeId tgt = c.workflow.AddRecordSet({"T", sch, 0});
      ETLOPT_CHECK_OK(c.workflow.Connect(n, tgt));
      ETLOPT_CHECK_OK(c.workflow.Finalize());
      auto row = [wide](int k) {
        return wide ? Record({Value::Int(k), Value::String("x")})
                    : Record({Value::Int(k)});
      };
      for (int i = 0; i < (wide ? 300 : 100); ++i) {
        c.input.source_data["A"].push_back(row(i % (wide ? 20 : 10)));
        if (!wide || i % 3 != 0) {
          c.input.source_data["B"].push_back(row(i % (wide ? 30 : 15)));
        }
      }
      out.push_back(std::move(c));
    }
    return out;
  };
}

// Keyed activities over NaN-bearing double keys: a PK check (keep-first
// over 5, NaN, 7, NaN, 5 and more), an aggregation grouped by the key and
// a bag difference. NaN is one key, after every number, so the reference
// keeps exactly one row per distinct key, however the NaNs' bits differ.
CaseFn NanKeys() {
  return [] {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    std::memcpy(&bits, &nan, sizeof(bits));
    bits |= 0x5;  // a NaN with a payload
    double payload_nan;
    std::memcpy(&payload_nan, &bits, sizeof(bits));
    const double keys[] = {5, nan, 7, -nan, 5, payload_nan, 7, nan};

    Schema sch = Schema::MakeOrDie({{"K", DataType::kDouble},
                                    {"V", DataType::kInt64}});
    Schema agg = Schema::MakeOrDie({{"K", DataType::kDouble},
                                    {"SUM_V", DataType::kDouble},
                                    {"CNT_V", DataType::kInt64}});
    Cases out(1);
    Case& c = out[0];
    c.label = "nan_keys";
    Workflow& w = c.workflow;
    NodeId p = w.AddRecordSet({"P", sch, 100});
    NodeId g = w.AddRecordSet({"G", sch, 100});
    NodeId a = w.AddRecordSet({"A", sch, 100});
    NodeId b = w.AddRecordSet({"B", sch, 100});
    NodeId pk = *w.AddActivity(*MakePrimaryKeyCheck("pk", {"K"}, 0.5), {p});
    NodeId gamma = *w.AddActivity(
        *MakeAggregation("agg", {"K"},
                         {{AggFn::kSum, "V", "SUM_V"},
                          {AggFn::kCount, "V", "CNT_V"}},
                         0.5),
        {g});
    NodeId diff = *w.AddActivity(*MakeDifference("diff", 0.5), {a, b});
    const struct {
      NodeId from;
      const char* name;
      const Schema& schema;
    } targets[] = {{pk, "T_PK", sch}, {gamma, "T_AGG", agg},
                   {diff, "T_DIFF", sch}};
    for (const auto& t : targets) {
      ETLOPT_CHECK_OK(w.Connect(t.from, w.AddRecordSet({t.name, t.schema, 0})));
    }
    ETLOPT_CHECK_OK(w.Finalize());
    for (int i = 0; i < 64; ++i) {
      const Record row({Value::Double(keys[i % 8]), Value::Int(i)});
      c.input.source_data["P"].push_back(row);
      c.input.source_data["G"].push_back(row);
      // One NaN pattern for the bag: it keeps the first of equal rows.
      c.input.source_data["A"].push_back(
          Record({Value::Double(std::isnan(keys[i % 8]) ? nan : keys[i % 8]),
                  Value::Int(i % 2)}));
    }
    c.input.source_data["B"] = {Record({Value::Double(nan), Value::Int(1)}),
                                Record({Value::Double(5), Value::Int(0)})};
    // 3 keys; 3 groups; 64 rows less one NaN row and one 5 row.
    c.expected_rows = {{"T_PK", 3}, {"T_AGG", 3}, {"T_DIFF", 62}};
    return out;
  };
}

// Fig. 1 with no source data, with an orphan recordset added after
// Finalize (a stale workflow), or with its lookup tables dropped.
enum class Broken { kNoSources, kStale, kNoLookups };
CaseFn BrokenInput(Broken how) {
  return [=] {
    Cases out =
        how == Broken::kNoLookups ? Fig4(1, 100)() : Fig1(1, 10)();
    Case& c = out[0];
    switch (how) {
      case Broken::kNoSources:
        c.input = ExecutionInput();
        break;
      case Broken::kStale:
        c.workflow.AddRecordSet(
            {"orphan", Schema::MakeOrDie({{"X", DataType::kInt64}}), 0});
        break;
      case Broken::kNoLookups:
        ETLOPT_CHECK(!c.input.context.lookups.empty());
        c.input.context.lookups.clear();
        break;
    }
    return out;
  };
}

// Generated flows of both sizes, which between them carry every
// row-wise kind, Function and SurrogateKey included.
CaseFn GeneratedMix() {
  return [] {
    Cases out;
    size_t functions = 0, surrogate_keys = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      for (Case& c : Generated(seed % 2 == 0 ? WorkloadCategory::kMedium
                                             : WorkloadCategory::kSmall,
                               seed, seed, 150)()) {
        for (NodeId id : c.workflow.ActivityNodeIds()) {
          for (const auto& m : c.workflow.chain(id).members()) {
            functions += m.activity.kind() == ActivityKind::kFunction;
            surrogate_keys +=
                m.activity.kind() == ActivityKind::kSurrogateKey;
          }
        }
        out.push_back(std::move(c));
      }
    }
    EXPECT_GT(functions, 0u);
    EXPECT_GT(surrogate_keys, 0u);
    return out;
  };
}

// Fig. 1 with recovery points placed for frequent failures.
CaseFn Fig1WithPlan(uint64_t seed, size_t rows) {
  return [=] {
    Cases out = Fig1(seed, rows)();
    LinearLogCostModel model;
    auto bd = ComputeCostBreakdown(out[0].workflow, model);
    ETLOPT_CHECK_OK(bd.status());
    ReliabilityParams params;
    params.failure_rate_per_cost = 1e-2;
    params.checkpoint_setup_cost = 1.0;
    params.checkpoint_cost_per_row = 0.001;
    out[0].plan = PlaceRecoveryPoints(out[0].workflow, *bd, params);
    ETLOPT_CHECK(out[0].plan.enabled);
    return out;
  };
}

// ---- engine configurations ------------------------------------------------

struct Config {
  enum Kind { kSerial, kVectorized, kRecoverable, kStream } kind = kSerial;
  size_t threads = 0, batch = 0, partitions = 0;  // vectorized
  int64_t batches = 0;  // stream micro-batches
  int64_t window = 0;   // stream event-time window in ms; 0: count slices
  int attempts = 3;     // recoverable, stream: retry attempts per step
  bool cached = false;  // runs against the pass's shared result cache
  Order order = Order::kExact;

  std::string Label() const {
    switch (kind) {
      case kSerial:
        return cached ? "serial+cache" : "serial";
      case kVectorized:
        return "vectorized(t=" + std::to_string(threads) +
               ",b=" + std::to_string(batch) +
               ",p=" + std::to_string(partitions) + ")" +
               (cached ? "+cache" : "");
      case kRecoverable:
        return "recoverable";
      case kStream:
        return window > 0 ? "stream(window=" + std::to_string(window) + ")"
                          : "stream(N=" + std::to_string(batches) + ")";
    }
    return "?";
  }
};

Config Serial(bool cached = false) {
  Config c;
  c.cached = cached;
  return c;
}

Config Vec(size_t threads, size_t batch = 0, size_t partitions = 0,
           bool cached = false) {
  Config c;
  c.kind = Config::kVectorized;
  c.threads = threads;
  c.batch = batch;
  c.partitions = partitions;
  c.cached = cached;
  return c;
}

Config Recoverable(int attempts = 3) {
  Config c;
  c.kind = Config::kRecoverable;
  c.attempts = attempts;
  return c;
}

Config Stream(int64_t batches, int attempts = 3,
              Order order = Order::kMultiset) {
  Config c;
  c.kind = Config::kStream;
  c.batches = batches;
  c.attempts = attempts;
  c.order = order;
  return c;
}

Config Window(int64_t millis) {
  Config c = Stream(0);
  c.window = millis;
  return c;
}

using Configs = std::vector<Config>;

// The vectorized engine at 1, 2 and 8 threads; small batches force real
// fan-out.
Configs ThreadSweep() { return {Vec(1, 64), Vec(2, 64), Vec(8, 64)}; }

// Threads x batch size x partition count.
Configs TuningGrid() {
  Configs out;
  for (size_t t : {1u, 3u, 8u}) {
    for (size_t b : {16u, 1024u}) {
      for (size_t p : {1u, 5u, 32u}) out.push_back(Vec(t, b, p));
    }
  }
  return out;
}

Configs Streams(std::vector<int64_t> batches) {
  Configs out;
  for (int64_t n : batches) out.push_back(Stream(n));
  return out;
}

// Serial, then the vectorized engine at 1, 2 and 8 threads, all against
// one cache: one cold run, then warm runs that cross engines.
Configs CachedEngines() {
  return {Serial(true), Vec(1, 64, 0, true), Vec(2, 64, 0, true),
          Vec(8, 64, 0, true)};
}

// ---- fault schedules ------------------------------------------------------

struct Schedule {
  enum Kind {
    kNone,          // every configuration once per pass
    kArmed,         // `faults` armed over each pass
    kCrashSweep,    // crash at every hit of each of `sites`, then restart
    kCrashResume,   // crash at faults[0], again at faults[1] while
                    // resuming, then converge
    kRandom,        // `seeds` random schedules, 4 armed attempts each,
                    // then a fault-free restart
    kCacheSweep,    // error and crash at every hit of each of `sites`
    kRepublish,     // faults[0] armed over the first run only
    kConcurrent,    // the pass's runs on parallel threads
    kChaos,         // rotating random schedules, with a networked request
  } kind = kNone;
  std::vector<FaultSpec> faults = {};
  std::vector<FaultSite> sites = {};
  uint64_t seeds = 0;
  FaultScheduleOptions random = {};
};

FaultSpec Spec(FaultSite site, uint64_t hit, FaultKind kind,
               int64_t delay_micros = 0) {
  FaultSpec spec;
  spec.site = site;
  spec.hit = hit;
  spec.kind = kind;
  spec.delay_micros = delay_micros;
  return spec;
}

Schedule Armed(std::vector<FaultSpec> faults) {
  return {Schedule::kArmed, std::move(faults), {}, 0, {}};
}

Schedule CrashSweep(std::vector<FaultSite> sites) {
  return {Schedule::kCrashSweep, {}, std::move(sites), 0, {}};
}

Schedule CrashResume(FaultSpec first, FaultSpec second) {
  return {Schedule::kCrashResume, {first, second}, {}, 0, {}};
}

Schedule Random(uint64_t seeds) {
  Schedule s{Schedule::kRandom, {}, {}, seeds, {}};
  s.random.num_faults = 6;
  s.random.max_hit = 48;
  s.random.delay_micros = 50;
  return s;
}

// ---- cells ----------------------------------------------------------------

struct RunStats {
  VectorizedStats vectorized;
  RecoveryStats recovery;
  StreamStats stream;
};

struct Cell {
  const char* suite;
  const char* name;
  CaseFn cases;
  Configs configs;
  Schedule schedule = {};
  /// Cut-point policies, each run in its own passes (empty: kAuto).
  std::vector<CutPointPolicy> cut_points = {};
  /// Cache shards and byte budget (0: defaults).
  size_t cache_shards = 0, cache_budget = 0;
  /// Expected failure: every run fails with `error` (unless kOk) and a
  /// message containing `error_text`.
  StatusCode error = StatusCode::kOk;
  const char* error_text = nullptr;
  int passes = 1;
  /// Further assertions on each successful run's engine statistics.
  void (*check)(const Config&, const RunStats&) = nullptr;
};

class CellRunner {
 public:
  CellRunner(const Cell& cell, const Case& c) : cell_(cell), case_(c) {}

  void Run() {
    auto ref = ExecuteWorkflow(case_.workflow, case_.input);
    if (!ref.ok()) {
      ASSERT_TRUE(expects_error()) << ref.status().ToString();
    } else {
      reference_ = std::move(ref).value();
    }
    for (const auto& [target, rows] : case_.expected_rows) {
      auto it = reference_.target_data.find(target);
      EXPECT_EQ(it == reference_.target_data.end() ? 0 : it->second.size(),
                rows)
          << target;
    }
    std::vector<CutPointPolicy> policies = cell_.cut_points;
    if (policies.empty()) policies.push_back(CutPointPolicy::kAuto);
    for (CutPointPolicy policy : policies) {
      policy_ = policy;
      SCOPED_TRACE("cut points " + std::to_string(static_cast<int>(policy)));
      RunSchedule();
    }
  }

 private:
  bool expects_error() const {
    return cell_.error != StatusCode::kOk || cell_.error_text != nullptr;
  }

  std::unique_ptr<SharedResultCache> NewCache() const {
    SharedResultCacheOptions options;
    if (cell_.cache_shards != 0) options.shards = cell_.cache_shards;
    if (cell_.cache_budget != 0) options.byte_budget = cell_.cache_budget;
    return std::make_unique<SharedResultCache>(options);
  }

  // One run of `config`. The recoverable executor and the stream keep
  // their checkpoints in `dir` (none when empty).
  StatusOr<ExecutionResult> Execute(const Config& config,
                                    SharedResultCache* cache,
                                    const std::string& dir = "",
                                    RunStats* stats = nullptr) const {
    RunStats local;
    if (stats == nullptr) stats = &local;
    CacheOptions copts;
    copts.cache = config.cached ? cache : nullptr;
    copts.cut_points = policy_;
    RetryPolicy retry;
    retry.max_attempts = config.attempts;
    retry.initial_backoff_millis = 1;
    retry.max_backoff_millis = 2;
    switch (config.kind) {
      case Config::kSerial:
        return ExecuteWorkflow(case_.workflow, case_.input, copts);
      case Config::kVectorized: {
        VectorizedOptions options;
        options.num_threads = config.threads;
        options.batch_size = config.batch;
        options.num_partitions = config.partitions;
        options.cache = copts;
        return ExecuteVectorized(case_.workflow, case_.input, options,
                                 &stats->vectorized);
      }
      case Config::kRecoverable: {
        RecoveryOptions options;
        options.checkpoint_dir = dir;
        options.checkpoint_policy = CheckpointPolicy::kAllNodes;
        if (case_.plan.enabled) {
          options.checkpoint_policy = CheckpointPolicy::kRecoveryPlan;
          options.recovery_plan = case_.plan;
        }
        options.retry = retry;
        return RecoverableExecutor(options).Execute(
            case_.workflow, case_.input, &stats->recovery);
      }
      case Config::kStream: {
        StreamOptions options;
        if (config.window > 0) {
          options.event_time_column = kEventTimeAttr;
          options.window_millis = config.window;
        } else {
          options.num_batches = config.batches;
        }
        options.checkpoint_dir = dir;
        options.remove_checkpoints_on_success = !keep_checkpoints_;
        if (case_.plan.enabled) options.recovery_plan = case_.plan;
        options.retry = retry;
        return StreamExecutor(options).Run(case_.workflow, case_.input,
                                           &stats->stream);
      }
    }
    return Status::Internal("unknown engine configuration");
  }

  // Holds one run to the reference (or to the expected error).
  void Expect(const Config& config, const StatusOr<ExecutionResult>& got,
              const RunStats& stats, const std::string& what = "") const {
    const std::string label = case_.label + " " + config.Label() + what;
    if (expects_error()) {
      ASSERT_FALSE(got.ok()) << label << ": run succeeded";
      if (cell_.error != StatusCode::kOk) {
        EXPECT_EQ(got.status().code(), cell_.error)
            << label << ": " << got.status().ToString();
      }
      if (cell_.error_text != nullptr) {
        EXPECT_NE(got.status().message().find(cell_.error_text),
                  std::string::npos)
            << label << ": " << got.status().ToString();
      }
      return;
    }
    EXPECT_TRUE(SameRun(reference_, got, config.order)) << label;
    if (got.ok() && cell_.check != nullptr) {
      SCOPED_TRACE(label);
      cell_.check(config, stats);
    }
  }

  // Every configuration once, in order, against one fresh cache. Unless
  // faults are armed or the budget forces evictions, a cached run is cold
  // on an empty cache (no hits, publishes, computes every row) and warm
  // after that (executes nothing).
  std::vector<StatusOr<ExecutionResult>> Pass(bool faulted) const {
    auto cache = NewCache();
    std::vector<StatusOr<ExecutionResult>> runs;
    bool cold = true;
    for (const Config& config : cell_.configs) {
      RunStats stats;
      runs.push_back(Execute(config, cache.get(), "", &stats));
      const StatusOr<ExecutionResult>& r = runs.back();
      Expect(config, r, stats);
      if (!config.cached || !r.ok()) continue;
      EXPECT_TRUE(r->cache.enabled);
      EXPECT_GT(r->cache.cut_points, 0u);
      if (faulted || cell_.cache_budget != 0) continue;
      if (cold) {
        EXPECT_EQ(r->cache.hits, 0u) << config.Label();
        EXPECT_GT(r->cache.published, 0u) << config.Label();
        EXPECT_EQ(r->cache.rows_computed, TotalRowsOut()) << config.Label();
      } else {
        EXPECT_GT(r->cache.hits, 0u) << config.Label();
        EXPECT_EQ(r->cache.nodes_executed, 0u) << config.Label();
        EXPECT_EQ(r->cache.rows_computed, 0u) << config.Label();
      }
      cold = false;
    }
    if (cell_.cache_budget != 0) {
      ResultCacheStats stats = cache->Stats();
      EXPECT_LE(stats.bytes, cell_.cache_budget);
      EXPECT_GT(stats.evictions + stats.oversized, 0u);
    }
    return runs;
  }

  size_t TotalRowsOut() const {
    size_t n = 0;
    for (const auto& [node, rows] : reference_.rows_out) n += rows;
    return n;
  }

  void RunSchedule() {
    const Schedule& s = cell_.schedule;
    switch (s.kind) {
      case Schedule::kNone:
        for (int pass = 0; pass < cell_.passes; ++pass) Pass(false);
        return;
      case Schedule::kArmed:
        return RunArmed();
      case Schedule::kCrashSweep:
        for (const Config& config : cell_.configs) {
          for (FaultSite site : s.sites) CrashSweep(config, site);
        }
        return;
      case Schedule::kCrashResume:
        for (const Config& config : cell_.configs) CrashResume(config);
        return;
      case Schedule::kRandom:
        for (const Config& config : cell_.configs) {
          for (uint64_t seed = 1; seed <= s.seeds; ++seed) {
            RandomSchedule(config, MakeRandomFaultSchedule(seed, s.random),
                           "seed " + std::to_string(seed));
          }
        }
        return;
      case Schedule::kCacheSweep:
        return CacheSweep();
      case Schedule::kRepublish:
        return Republish();
      case Schedule::kConcurrent:
        return Concurrent();
      case Schedule::kChaos:
        return Chaos();
    }
  }

  // The faults armed over each pass. Without an expected error every
  // armed run absorbs them and loads the reference. With one, every armed
  // run fails with it, the same way on a second armed pass, and the
  // disarmed runs then load the reference.
  void RunArmed() {
    const FaultSchedule schedule{cell_.schedule.faults};
    if (!expects_error()) {
      ScopedFaultInjection arm(schedule);
      Pass(true);
      EXPECT_EQ(FaultInjector::Global().Stats().total_fired(),
                schedule.faults.size());
      return;
    }
    std::vector<std::string> first;
    for (int pass = 0; pass < 2; ++pass) {
      ScopedFaultInjection arm(schedule);
      std::vector<std::string> messages;
      for (const auto& r : Pass(true)) {
        messages.push_back(r.status().ToString());
      }
      EXPECT_EQ(FaultInjector::Global().Stats().total_fired(),
                schedule.faults.size());
      if (pass == 0) first = messages;
      EXPECT_EQ(messages, first) << "an armed run must fail the same way";
    }
    for (const Config& config : cell_.configs) {
      EXPECT_TRUE(SameRun(reference_, Execute(config, nullptr), config.order))
          << case_.label << " " << config.Label() << " disarmed";
    }
  }

  // Crash at hit `hit` of `site`, then restart fault-free over the same
  // checkpoints, until the hit is past the site's last.
  void CrashSweep(const Config& config, FaultSite site) {
    keep_checkpoints_ = config.kind == Config::kStream;
    const std::string dir = ScratchDir("contract_sweep");
    uint64_t hit = 0;
    for (;; ++hit) {
      ASSERT_LT(hit, 10000u) << "sweep failed to terminate";
      const std::string what = std::string(" crash at ") +
                               std::string(FaultSiteName(site)) + "#" +
                               std::to_string(hit);
      bool fired = false;
      {
        ScopedFaultInjection arm(
            FaultSchedule{{Spec(site, hit, FaultKind::kCrash)}});
        RunStats stats;
        auto crashed = Execute(config, nullptr, dir, &stats);
        fired = FaultInjector::Global().Stats().total_fired() > 0;
        if (fired) {
          EXPECT_TRUE(!crashed.ok() && IsInjectedCrash(crashed.status()))
              << what << ": " << crashed.status().ToString();
        } else {
          Expect(config, crashed, stats, what);
        }
      }
      RunStats stats;
      Expect(config, Execute(config, nullptr, dir, &stats), stats,
             what + ", restarted");
      fs::remove_all(dir);
      if (!fired) break;
    }
    EXPECT_GT(hit, 0u) << FaultSiteName(site) << " never fired";
  }

  void CrashResume(const Config& config) {
    keep_checkpoints_ = config.kind == Config::kStream;
    const std::string dir = ScratchDir("contract_resume");
    for (const FaultSpec& spec : cell_.schedule.faults) {
      ScopedFaultInjection arm(FaultSchedule{{spec}});
      auto crashed = Execute(config, nullptr, dir);
      ASSERT_FALSE(crashed.ok());
      EXPECT_TRUE(IsInjectedCrash(crashed.status()))
          << crashed.status().ToString();
    }
    RunStats stats;
    auto resumed = Execute(config, nullptr, dir, &stats);
    Expect(config, resumed, stats, " resumed");
    if (config.kind == Config::kStream) {
      EXPECT_TRUE(stats.stream.resumed);
      EXPECT_GT(stats.stream.batches_skipped, 0u);
    } else {
      EXPECT_TRUE(stats.recovery.resumed);
    }
    fs::remove_all(dir);
  }

  // Four armed attempts over one checkpoint directory: each returns the
  // reference or a clean Status. Then, faults cleared, the restart
  // converges to the reference.
  void RandomSchedule(const Config& config, const FaultSchedule& schedule,
                      const std::string& what) {
    keep_checkpoints_ = false;
    const std::string dir = ScratchDir("contract_random");
    for (int attempt = 0; attempt < 4; ++attempt) {
      ScopedFaultInjection arm(schedule);
      RunStats stats;
      auto r = Execute(config, nullptr, dir, &stats);
      if (r.ok()) {
        Expect(config, r, stats, " " + what);
      } else {
        EXPECT_FALSE(r.status().message().empty());
      }
    }
    RunStats stats;
    Expect(config, Execute(config, nullptr, dir, &stats), stats,
           " " + what + ", faults cleared");
    fs::remove_all(dir);
  }

  // An injected error or crash at any hit of a cache site degrades that
  // probe or publication to a recompute: the pass still succeeds with
  // the reference bytes.
  void CacheSweep() {
    for (FaultSite site : cell_.schedule.sites) {
      uint64_t total_hits = 0;
      {
        ScopedFaultInjection counting{FaultSchedule{}};
        Pass(true);
        total_hits =
            FaultInjector::Global().Stats().hits[static_cast<int>(site)];
      }
      ASSERT_GT(total_hits, 0u) << FaultSiteName(site);
      for (FaultKind kind : {FaultKind::kError, FaultKind::kCrash}) {
        for (uint64_t hit = 0; hit < total_hits; ++hit) {
          SCOPED_TRACE(std::string(FaultSiteName(site)) + " kind " +
                       std::to_string(static_cast<int>(kind)) + " hit " +
                       std::to_string(hit));
          ScopedFaultInjection arm{FaultSchedule{{Spec(site, hit, kind)}}};
          Pass(true);
          EXPECT_EQ(FaultInjector::Global().Stats().total_fired(), 1u);
        }
      }
    }
  }

  // A failed publication never poisons the cache: an unfaulted run
  // publishes again, and the one after it executes nothing.
  void Republish() {
    auto cache = NewCache();
    const Config& config = cell_.configs.front();
    {
      ScopedFaultInjection arm{FaultSchedule{cell_.schedule.faults}};
      Expect(config, Execute(config, cache.get()), {}, " faulted");
    }
    EXPECT_GT(cache->Stats().aborted, 0u);
    Expect(config, Execute(config, cache.get()), {}, " republished");
    auto warm = Execute(config, cache.get());
    Expect(config, warm, {}, " warm");
    if (warm.ok()) {
      EXPECT_EQ(warm->cache.nodes_executed, 0u);
    }
  }

  // Identical runs racing on an empty cache coalesce onto one execution:
  // the summed computed rows are one uncached run's.
  void Concurrent() {
    auto cache = NewCache();
    std::vector<StatusOr<ExecutionResult>> runs(
        cell_.configs.size(), Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < cell_.configs.size(); ++i) {
      threads.emplace_back(
          [&, i] { runs[i] = Execute(cell_.configs[i], cache.get()); });
    }
    for (std::thread& t : threads) t.join();
    size_t total = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      Expect(cell_.configs[i], runs[i], {}, " run " + std::to_string(i));
      if (runs[i].ok()) total += runs[i]->cache.rows_computed;
    }
    EXPECT_EQ(total, TotalRowsOut());
  }

  void Chaos();

  const Cell& cell_;
  const Case& case_;
  ExecutionResult reference_;
  CutPointPolicy policy_ = CutPointPolicy::kAuto;
  bool keep_checkpoints_ = false;
};

// Rounds of rotating random schedules over every configuration and a
// networked optimize request, for up to 20 s (at least 3 rounds). Every
// completed run and answer matches its fault-free reference, every
// failure is a clean Status, and after each round a disarmed pass over
// the same checkpoints completes: no wedge, no poisoned state.
void CellRunner::Chaos() {
  LinearLogCostModel model;
  SearchOptions budget;
  budget.max_states = 2000;
  GeneratorOptions gen;
  gen.seed = 7;
  auto generated = GenerateWorkflow(gen);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Workflow net_workflow = std::move(generated->workflow);
  // The reference answer comes from the canonical text the client sends
  // (twin activities can swap names across a reparse).
  auto canonical =
      MakeNetRequest(net_workflow, SearchAlgorithm::kHeuristic, budget);
  ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
  auto reparsed = ParseWorkflowText(canonical->workflow_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  OptimizerService reference(model);
  OptimizeRequest request;
  request.workflow = std::move(reparsed).value();
  request.options = budget;
  auto response = reference.Optimize(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string expected_plan = SerializePlanBinary(response->plan->plan);

  ServerOptions server_options;
  server_options.ephemeral_port = true;
  server_options.service.num_threads = 2;
  OptimizerServer server(model, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto net_request = [&]() -> Status {
    ClientOptions options;
    options.timeout_millis = 5000;
    ETLOPT_ASSIGN_OR_RETURN(
        OptimizerClient client,
        OptimizerClient::Connect("127.0.0.1", server.port(), options));
    ETLOPT_ASSIGN_OR_RETURN(
        NetOptimizeRequest req,
        MakeNetRequest(net_workflow, SearchAlgorithm::kHeuristic, budget));
    ETLOPT_ASSIGN_OR_RETURN(NetOptimizeResponse resp, client.Optimize(req));
    // Degraded answers come from the admission-control greedy fallback
    // and legitimately differ; full answers must stay byte-identical.
    if (!resp.degraded) {
      EXPECT_EQ(SerializePlanBinary(resp.plan), expected_plan);
    }
    return Status::OK();
  };

  std::vector<std::string> dirs;
  for (size_t i = 0; i < cell_.configs.size(); ++i) {
    dirs.push_back(ScratchDir("contract_chaos"));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int rounds = 0, completed = 0, failed = 0;
  for (uint64_t round = 0; round < cell_.schedule.seeds; ++round) {
    if (round >= 3 && std::chrono::steady_clock::now() >= deadline) break;
    SCOPED_TRACE("round " + std::to_string(round));
    {
      ScopedFaultInjection arm(
          MakeRandomFaultSchedule(1000 + round, cell_.schedule.random));
      std::vector<Status> outcomes = {net_request()};
      for (size_t i = 0; i < cell_.configs.size(); ++i) {
        RunStats stats;
        auto r = Execute(cell_.configs[i], nullptr, dirs[i], &stats);
        if (r.ok()) Expect(cell_.configs[i], r, stats, " under chaos");
        outcomes.push_back(r.status());
      }
      for (const Status& status : outcomes) {
        status.ok() ? ++completed : ++failed;
        EXPECT_TRUE(status.ok() || !status.message().empty());
      }
      EXPECT_GT(FaultInjector::Global().Stats().total_hits(), 0u)
          << "chaos round exercised no fault sites";
    }
    Status net = net_request();
    EXPECT_TRUE(net.ok()) << net.ToString();
    for (size_t i = 0; i < cell_.configs.size(); ++i) {
      RunStats stats;
      Expect(cell_.configs[i], Execute(cell_.configs[i], nullptr, dirs[i],
                                       &stats),
             stats, " after chaos");
    }
    ++rounds;
  }
  EXPECT_GE(rounds, 3);
  std::printf("chaos: %d rounds, %d completed under chaos, %d clean "
              "failures\n",
              rounds, completed, failed);
  for (const std::string& dir : dirs) fs::remove_all(dir);
  EXPECT_TRUE(server.Stop().ok());
}

// ---- statistics checks ----------------------------------------------------

// Every member of a generated flow runs a columnar kernel.
void NoFallback(const Config&, const RunStats& s) {
  EXPECT_EQ(s.vectorized.fallback_members, 0u);
  EXPECT_GT(s.vectorized.vectorized_members, 0u);
}

// Difference and intersection keep the row-path fallback: one member,
// over the 100 rows of its first input.
void OneFallback(const Config&, const RunStats& s) {
  EXPECT_EQ(s.vectorized.fallback_members, 1u);
  EXPECT_EQ(s.vectorized.fallback_rows, 100u);
  EXPECT_EQ(s.vectorized.vectorized_members, 0u);
}

// Fig. 1 at 400 rows per source in batches of 32: at least 13 batch
// tasks at each source alone, every member (aggregation included) on a
// kernel.
void Fig1Stats(const Config& config, const RunStats& s) {
  EXPECT_EQ(s.vectorized.num_threads, config.threads);
  EXPECT_GE(s.vectorized.batches, 13u);
  EXPECT_GT(s.vectorized.vectorized_members, 0u);
  EXPECT_GT(s.vectorized.vectorized_rows, 0u);
  EXPECT_EQ(s.vectorized.fallback_members, 0u);
  EXPECT_EQ(s.vectorized.fallback_rows, 0u);
}

void Retried(const Config&, const RunStats& s) {
  EXPECT_GE(s.stream.retries, 1u);
}

// ---- the matrix -----------------------------------------------------------

constexpr auto kSmall = WorkloadCategory::kSmall;
constexpr auto kMedium = WorkloadCategory::kMedium;

CaseFn SmallSeeds1To4() {
  return All({Generated(kSmall, 1, 1, 60), Generated(kSmall, 2, 2, 60),
              Generated(kSmall, 3, 3, 60), Generated(kSmall, 4, 4, 60)});
}

// Stream cases: small seeds 1-3 and medium seed 17, input seed*31+4.
CaseFn StreamSmall() {
  return All({Generated(kSmall, 1, 35, 120), Generated(kSmall, 2, 66, 120),
              Generated(kSmall, 3, 97, 120)});
}

std::vector<Cell> MakeCells() {
  const Schedule batch_fault =
      Armed({Spec(FaultSite::kVectorizedBatch, 2, FaultKind::kError)});
  Schedule chaos{Schedule::kChaos, {}, {}, 12, {}};
  chaos.random.num_faults = 4;
  chaos.random.max_hit = 32;
  std::vector<Cell> cells = {
      // The vectorized engine at 1, 2 and 8 threads.
      {"VectorizedAgreementTest", "AgreesOnFig1", Fig1(42, 300),
       ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnFig4", Fig4(7, 64), ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnGeneratedWorkflows",
       SmallSeeds1To4(), ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnMediumWorkflow",
       Generated(kMedium, 2, 11, 80), ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnOptimizedFig1", Hs(Fig1(8, 250)),
       ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnOptimizedFig4", Hs(Fig4(8, 64)),
       ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnJoinWithPkCheckAndNulls",
       JoinWithPk(true), ThreadSweep()},
      {"VectorizedAgreementTest", "AgreesOnFallbackKinds", SetOps(true),
       ThreadSweep()},
      {"VectorizedAgreementTest", "GeneratedWorkflowsNeedNoFallback",
       GeneratedMix(), {Vec(1, 32), Vec(2, 32)}, {}, {}, 0, 0,
       StatusCode::kOk, nullptr, 1, NoFallback},
      {"VectorizedAgreementTest", "DifferenceCountsOneFallback", SetOps(false),
       {Vec(2, 16)}, {}, {}, 0, 0, StatusCode::kOk, nullptr, 1, OneFallback},
      {"VectorizedAgreementTest", "FailsOnMissingSourceData",
       BrokenInput(Broken::kNoSources), {Vec(0)}, {}, {}, 0, 0,
       StatusCode::kNotFound},
      {"VectorizedAgreementTest", "FailsOnStaleWorkflow",
       BrokenInput(Broken::kStale), {Vec(0)}, {}, {}, 0, 0,
       StatusCode::kFailedPrecondition},
      {"VectorizedAgreementTest", "PropagatesActivityErrorsWithNodeContext",
       BrokenInput(Broken::kNoLookups), {Vec(4, 8)}, {}, {}, 0, 0,
       StatusCode::kOk, "executing node"},
      // One thread maps hits to batches deterministically.
      {"VectorizedAgreementTest", "BatchFaultFailsCleanlyAndDeterministically",
       Fig1(3, 200), {Vec(1, 32)}, batch_fault, {}, 0, 0,
       StatusCode::kUnavailable},

      // The vectorized engine across threads x batch size x partitions.
      {"ParallelExecTest", "MatchesBatchOnFig1", Fig1(42, 300), TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnFig4", Fig4(7, 64), TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnGeneratedWorkflows",
       SmallSeeds1To4(), TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnMediumWorkflow",
       Generated(kMedium, 2, 11, 80), TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnOptimizedWorkflow",
       Hs(Fig1(8, 250), false), TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnJoinWithPkCheck", JoinWithPk(false),
       TuningGrid()},
      {"ParallelExecTest", "MatchesBatchOnDifferenceAndIntersection",
       SetOps(true), TuningGrid()},
      {"ParallelExecTest", "DeterministicAcrossRunsAndTuning",
       Generated(kSmall, 3, 9, 200), TuningGrid(), {}, {}, 0, 0,
       StatusCode::kOk, nullptr, 2},
      {"ParallelExecTest", "ReportsStats", Fig1(1, 400), {Vec(4, 32)}, {}, {},
       0, 0, StatusCode::kOk, nullptr, 1, Fig1Stats},
      {"ParallelExecTest", "FailsOnMissingSourceData",
       BrokenInput(Broken::kNoSources), TuningGrid(), {}, {}, 0, 0,
       StatusCode::kNotFound},
      {"ParallelExecTest", "FailsOnStaleWorkflow",
       BrokenInput(Broken::kStale), TuningGrid(), {}, {}, 0, 0,
       StatusCode::kFailedPrecondition},
      {"ParallelExecTest", "PropagatesActivityErrorsWithNodeContext",
       BrokenInput(Broken::kNoLookups), TuningGrid(), {}, {}, 0, 0,
       StatusCode::kOk, "executing node"},

      // HS-optimized generated flows on every engine.
      {"ContractTest", "OptimizedGeneratedWorkflowsOnEveryEngine",
       Hs(All({Generated(kSmall, 1, 1, 60), Generated(kSmall, 2, 2, 60),
               Generated(kMedium, 2, 11, 80)}),
          false),
       {Vec(1, 64), Vec(8, 16, 5), Recoverable(), Stream(1), Stream(7),
        Serial(true), Vec(2, 64, 0, true)}},

      // NaN is one key on every engine, at any partition count.
      {"ContractTest", "NanKeysAgreeOnEveryEngine", NanKeys(),
       {Serial(), Vec(2, 16, 1), Vec(2, 16, 5), Vec(2, 16, 32), Stream(1),
        Stream(2), Stream(7), Stream(64)}},

      // The recoverable executor under crashes at every hit, a crash
      // while resuming, and random mixed schedules.
      {"RecoveryPropertyTest", "CrashRestartAtEveryFaultSiteAndHit",
       Generated(kMedium, 17, 4, 200), {Recoverable(4)},
       CrashSweep({FaultSite::kActivityExecute, FaultSite::kCheckpointWrite})},
      {"RecoveryPropertyTest", "CrashDuringResumeStillConverges",
       Generated(kMedium, 17, 4, 200), {Recoverable(4)},
       CrashResume(Spec(FaultSite::kActivityExecute, 3, FaultKind::kCrash),
                   Spec(FaultSite::kCheckpointRead, 0, FaultKind::kCrash))},
      {"RecoveryPropertyTest", "RandomFaultSchedulesNeverCorruptOutput",
       Generated(kMedium, 17, 4, 200), {Recoverable(4)}, Random(12)},

      // The stream at any micro-batch count or event-time window.
      {"StreamEquivalenceTest", "AnyPartitioningMatchesBatchRun",
       StreamSmall(), Streams({1, 2, 7, 64})},
      {"StreamEquivalenceTest", "MediumWorkflowMatchesBatchRun",
       Generated(kMedium, 17, 531, 200), Streams({2, 7})},
      {"StreamEquivalenceTest", "EventTimeWindowingMatchesBatchRun",
       Generated(kSmall, 5, 8, 150, true),
       {Window(1), Window(50), Window(400), Window(1000000)}},
      {"StreamEquivalenceTest", "RandomFaultSchedulesNeverCorruptOutput",
       Generated(kMedium, 17, 531, 200), {Stream(5, 4)}, Random(10)},

      // The stream crashed at every hit of every site it crosses.
      {"StreamRecoveryPropertyTest", "CrashRestartAtEveryHitOfEverySite",
       Generated(kSmall, 23, 41, 120), {Stream(4)},
       CrashSweep({FaultSite::kStreamSourceNext,
                   FaultSite::kStreamStateCheckpoint,
                   FaultSite::kActivityExecute})},
      {"StreamRecoveryPropertyTest", "CrashDuringResumeStillConverges",
       Generated(kSmall, 23, 41, 120), {Stream(4)},
       CrashResume(
           Spec(FaultSite::kStreamSourceNext, 2, FaultKind::kCrash),
           Spec(FaultSite::kStreamStateCheckpoint, 0, FaultKind::kCrash))},
      {"StreamRecoveryPropertyTest", "TransientSourceFaultIsRetriedExactlyOnce",
       Generated(kSmall, 23, 41, 120), {Stream(4)},
       Armed({Spec(FaultSite::kStreamSourceNext, 2, FaultKind::kError)}),
       {}, 0, 0, StatusCode::kOk, nullptr, 1, Retried},

      // The shared result cache is invisible: cold, warm, across engines,
      // under eviction and under racing runs.
      {"SharedCacheEquivalenceTest",
       "CacheOnIsByteIdenticalAcrossEnginesThreads",
       All({Generated(kSmall, 1, 101, 80), Generated(kSmall, 3, 103, 80),
            Generated(kMedium, 2, 102, 80)}),
       CachedEngines(), {}, {CutPointPolicy::kAuto, CutPointPolicy::kAll}},
      {"SharedCacheEquivalenceTest", "WarmRunExecutesNothing",
       Generated(kMedium, 5, 105, 80), {Serial(true), Serial(true)}},
      {"SharedCacheEquivalenceTest", "ResultsTransferAcrossEngines",
       Generated(kMedium, 7, 107, 80), {Serial(true), Vec(4, 64, 0, true)}},
      {"SharedCacheEquivalenceTest", "CorrectUnderEvictionPressure",
       Generated(kMedium, 9, 109, 80),
       {Serial(true), Serial(true), Serial(true)}, {}, {CutPointPolicy::kAll},
       1, 2048},
      {"SharedCacheEquivalenceTest", "ConcurrentIdenticalRunsExecuteOnce",
       Generated(kMedium, 4, 104, 80), Configs(6, Serial(true)),
       {Schedule::kConcurrent}},

      // A result cache can never fail a run.
      {"SharedCacheFaultTest", "EveryCacheFaultDegradesToRecompute",
       Generated(kMedium, 3, 103, 60), {Serial(true), Serial(true)},
       {Schedule::kCacheSweep, {},
        {FaultSite::kCacheLookup, FaultSite::kCacheMaterialize}},
       {CutPointPolicy::kAuto, CutPointPolicy::kAll}},
      {"SharedCacheFaultTest", "DelayFaultOnlySlowsTheRun",
       Generated(kMedium, 6, 106, 60), {Serial(true), Serial(true)},
       Armed({Spec(FaultSite::kCacheLookup, 0, FaultKind::kDelay, 100)})},
      {"SharedCacheFaultTest", "CacheRecoversAfterFailedPublication",
       Generated(kMedium, 8, 108, 60), {Serial(true)},
       {Schedule::kRepublish,
        {Spec(FaultSite::kCacheMaterialize, 0, FaultKind::kCrash)}}},

      // Everything at once: the networked optimizer, the plan-checkpointed
      // recoverable executor and the plan-paced stream.
      {"ChaosSoakTest", "RotatingFaultSchedulesNeverWedgeOrCorrupt",
       Fig1WithPlan(13, 80), {Recoverable(), Stream(8, 3, Order::kExact)},
       chaos},
  };
  return cells;
}

class CellTest : public ::testing::Test {
 public:
  explicit CellTest(Cell cell) : cell_(std::move(cell)) {}

  void TestBody() override {
    for (const Case& c : cell_.cases()) {
      SCOPED_TRACE("case " + c.label);
      CellRunner(cell_, c).Run();
    }
  }

 private:
  Cell cell_;
};

const bool kRegistered = [] {
  for (Cell& cell : MakeCells()) {
    const char* suite = cell.suite;
    const char* name = cell.name;
    ::testing::RegisterTest(suite, name, nullptr, nullptr, __FILE__,
                            __LINE__, [cell]() -> CellTest* {
                              return new CellTest(cell);
                            });
  }
  return true;
}();

}  // namespace
}  // namespace etlopt
