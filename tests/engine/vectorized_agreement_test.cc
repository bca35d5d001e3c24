#include "engine/vectorized.h"

#include <gtest/gtest.h>

#include "activity/templates.h"
#include "common/macros.h"
#include "fault/fault_injector.h"
#include "optimizer/search.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

// Engine agreement: the vectorized engine at one, two and eight threads
// must reproduce the serial engine's output byte-for-byte — same rows,
// same order, same rows_out. This is stronger than the
// SameRecordMultiset contract; any ordering divergence in a kernel fails
// here.
void ExpectAgreement(const Workflow& w, const ExecutionInput& input) {
  auto serial = ExecuteWorkflow(w, input);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t threads : {1u, 2u, 8u}) {
    VectorizedOptions options;
    options.num_threads = threads;
    options.batch_size = 64;  // small batches force real fan-out in tests
    auto vec = ExecuteVectorized(w, input, options);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(serial->target_data, vec->target_data)
        << "vectorized diverges at threads=" << threads;
    EXPECT_EQ(serial->rows_out, vec->rows_out);
  }
}

TEST(VectorizedAgreementTest, AgreesOnFig1) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExpectAgreement(s->workflow, MakeFig1Input(42, 300));
}

TEST(VectorizedAgreementTest, AgreesOnFig4) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  ExpectAgreement(s->workflow, MakeFig4Input(7, 64));
}

TEST(VectorizedAgreementTest, AgreesOnGeneratedWorkflows) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    GeneratorOptions options;
    options.category = WorkloadCategory::kSmall;
    options.seed = seed;
    auto g = GenerateWorkflow(options);
    ASSERT_TRUE(g.ok());
    ExpectAgreement(g->workflow, GenerateInputFor(g->workflow, seed, 60));
  }
}

TEST(VectorizedAgreementTest, AgreesOnMediumWorkflow) {
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = 2;
  auto g = GenerateWorkflow(options);
  ASSERT_TRUE(g.ok());
  ExpectAgreement(g->workflow, GenerateInputFor(g->workflow, 11, 80));
}

// Agreement must survive the optimizer: a post-HeuristicSearch state is
// equivalent but structurally different (swaps, factorizations), so the
// kernels see predicates and chains in rearranged positions.
TEST(VectorizedAgreementTest, AgreesOnOptimizedFig1) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  LinearLogCostModel model;
  auto r = HeuristicSearch(s->workflow, model);
  ASSERT_TRUE(r.ok());
  // Same bound input pre- and post-optimization.
  ExecutionInput input = MakeFig1Input(8, 250);
  ExpectAgreement(s->workflow, input);
  ExpectAgreement(r->best.workflow, input);
}

TEST(VectorizedAgreementTest, AgreesOnOptimizedFig4) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  LinearLogCostModel model;
  auto r = HeuristicSearch(s->workflow, model);
  ASSERT_TRUE(r.ok());
  ExecutionInput input = MakeFig4Input(8, 64);
  ExpectAgreement(s->workflow, input);
  ExpectAgreement(r->best.workflow, input);
}

// Covers the partitioned vectorized kernels end to end: PK-check feeding
// a join, with duplicate keys on the build side (keep-first observable)
// and NULL keys on both sides (must never join).
TEST(VectorizedAgreementTest, AgreesOnJoinWithPkCheckAndNulls) {
  Schema left = Schema::MakeOrDie({{"K", DataType::kInt64},
                                   {"A", DataType::kDouble}});
  Schema right = Schema::MakeOrDie({{"K", DataType::kInt64},
                                    {"B", DataType::kDouble}});
  Schema joined = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"A", DataType::kDouble},
                                     {"B", DataType::kDouble}});
  Workflow w;
  NodeId l = w.AddRecordSet({"L", left, 1000});
  NodeId r = w.AddRecordSet({"R", right, 1000});
  NodeId pk = *w.AddActivity(*MakePrimaryKeyCheck("pk", {"K"}, 0.5), {r});
  NodeId j = *w.AddActivity(*MakeJoin("join", {"K"}, 1.0), {l, pk});
  NodeId tgt = w.AddRecordSet({"T", joined, 0});
  ETLOPT_CHECK_OK(w.Connect(j, tgt));
  ETLOPT_CHECK_OK(w.Finalize());

  ExecutionInput input;
  for (int i = 0; i < 500; ++i) {
    input.source_data["L"].push_back(Record(
        {i % 11 == 0 ? Value::Null() : Value::Int(i % 40),
         Value::Double(i * 1.5)}));
    input.source_data["R"].push_back(Record(
        {i % 13 == 0 ? Value::Null() : Value::Int(i % 25),
         Value::Double(i * 2.0)}));
  }
  ExpectAgreement(w, input);
}

// The row-path fallback kinds (difference / intersection, bag semantics)
// must flow through the vectorized engine unchanged.
TEST(VectorizedAgreementTest, AgreesOnFallbackKinds) {
  Schema sch = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"V", DataType::kString}});
  for (bool difference : {true, false}) {
    Workflow w;
    NodeId a = w.AddRecordSet({"A", sch, 100});
    NodeId b = w.AddRecordSet({"B", sch, 100});
    Activity op = difference ? *MakeDifference("diff", 0.5)
                             : *MakeIntersection("isect", 0.5);
    NodeId n = *w.AddActivity(op, {a, b});
    NodeId tgt = w.AddRecordSet({"T", sch, 0});
    ETLOPT_CHECK_OK(w.Connect(n, tgt));
    ETLOPT_CHECK_OK(w.Finalize());

    ExecutionInput input;
    for (int i = 0; i < 300; ++i) {
      input.source_data["A"].push_back(
          Record({Value::Int(i % 20), Value::String("x")}));
      if (i % 3 != 0) {
        input.source_data["B"].push_back(
            Record({Value::Int(i % 30), Value::String("x")}));
      }
    }
    ExpectAgreement(w, input);
  }
}

// Generated workflows carry Function and SurrogateKey members; every
// member now runs a columnar kernel, so no member falls back to rows.
TEST(VectorizedAgreementTest, GeneratedWorkflowsNeedNoFallback) {
  size_t functions = 0, surrogate_keys = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorOptions options;
    options.category =
        seed % 2 == 0 ? WorkloadCategory::kMedium : WorkloadCategory::kSmall;
    options.seed = seed;
    auto g = GenerateWorkflow(options);
    ASSERT_TRUE(g.ok());
    for (NodeId id : g->workflow.ActivityNodeIds()) {
      for (const auto& m : g->workflow.chain(id).members()) {
        functions += m.activity.kind() == ActivityKind::kFunction;
        surrogate_keys += m.activity.kind() == ActivityKind::kSurrogateKey;
      }
    }
    ExecutionInput input = GenerateInputFor(g->workflow, seed, 150);
    auto serial = ExecuteWorkflow(g->workflow, input);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : {1u, 2u}) {
      VectorizedOptions vopts;
      vopts.num_threads = threads;
      vopts.batch_size = 32;
      VectorizedStats stats;
      auto vec = ExecuteVectorized(g->workflow, input, vopts, &stats);
      ASSERT_TRUE(vec.ok()) << vec.status().ToString();
      EXPECT_EQ(serial->target_data, vec->target_data)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(serial->rows_out, vec->rows_out);
      EXPECT_EQ(stats.fallback_members, 0u) << "seed " << seed;
      EXPECT_GT(stats.vectorized_members, 0u);
    }
  }
  EXPECT_GT(functions, 0u);
  EXPECT_GT(surrogate_keys, 0u);
}

// Difference and intersection keep the row-path fallback: one member,
// one fallback.
TEST(VectorizedAgreementTest, DifferenceCountsOneFallback) {
  Schema sch = Schema::MakeOrDie({{"K", DataType::kInt64}});
  for (bool difference : {true, false}) {
    Workflow w;
    NodeId a = w.AddRecordSet({"A", sch, 100});
    NodeId b = w.AddRecordSet({"B", sch, 100});
    Activity op = difference ? *MakeDifference("diff", 0.5)
                             : *MakeIntersection("isect", 0.5);
    NodeId n = *w.AddActivity(op, {a, b});
    NodeId tgt = w.AddRecordSet({"T", sch, 0});
    ETLOPT_CHECK_OK(w.Connect(n, tgt));
    ETLOPT_CHECK_OK(w.Finalize());
    ExecutionInput input;
    for (int i = 0; i < 100; ++i) {
      input.source_data["A"].push_back(Record({Value::Int(i % 10)}));
      input.source_data["B"].push_back(Record({Value::Int(i % 15)}));
    }
    auto serial = ExecuteWorkflow(w, input);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    VectorizedOptions vopts;
    vopts.num_threads = 2;
    vopts.batch_size = 16;
    VectorizedStats stats;
    auto vec = ExecuteVectorized(w, input, vopts, &stats);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(serial->target_data, vec->target_data);
    EXPECT_EQ(stats.fallback_members, 1u);
    EXPECT_EQ(stats.fallback_rows, 100u);
    EXPECT_EQ(stats.vectorized_members, 0u);
  }
}

TEST(VectorizedAgreementTest, DeterministicAcrossRunsAndTuning) {
  GeneratorOptions g_options;
  g_options.category = WorkloadCategory::kSmall;
  g_options.seed = 3;
  auto g = GenerateWorkflow(g_options);
  ASSERT_TRUE(g.ok());
  ExecutionInput input = GenerateInputFor(g->workflow, 9, 200);

  auto reference = ExecuteWorkflow(g->workflow, input);
  ASSERT_TRUE(reference.ok());
  // Any combination of threads / batch size / partition count, run
  // repeatedly, must reproduce the reference bytes.
  for (size_t threads : {1u, 3u, 8u}) {
    for (size_t batch : {16u, 1024u}) {
      for (size_t partitions : {1u, 5u, 32u}) {
        for (int run = 0; run < 2; ++run) {
          VectorizedOptions options;
          options.num_threads = threads;
          options.batch_size = batch;
          options.num_partitions = partitions;
          auto vec = ExecuteVectorized(g->workflow, input, options);
          ASSERT_TRUE(vec.ok()) << vec.status().ToString();
          EXPECT_EQ(reference->target_data, vec->target_data)
              << "threads=" << threads << " batch=" << batch
              << " partitions=" << partitions;
          EXPECT_EQ(reference->rows_out, vec->rows_out);
        }
      }
    }
  }
}

TEST(VectorizedAgreementTest, ReportsStats) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  VectorizedOptions options;
  options.num_threads = 4;
  options.batch_size = 32;
  VectorizedStats stats;
  auto r = ExecuteVectorized(s->workflow, MakeFig1Input(1, 400), options,
                             &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.num_threads, 4u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.vectorized_members, 0u);
  EXPECT_GT(stats.vectorized_rows, 0u);
}

TEST(VectorizedAgreementTest, ExecuteWithDispatchesAllEngines) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(5, 120);
  auto serial = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(serial.ok());
  for (EngineKind kind : {EngineKind::kSerial, EngineKind::kVectorized}) {
    ExecutionOptions options;
    options.engine = kind;
    options.num_threads = 2;
    auto r = ExecuteWith(s->workflow, input, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(serial->target_data, r->target_data)
        << "engine kind " << static_cast<int>(kind);
    EXPECT_EQ(serial->rows_out, r->rows_out);
  }
}

TEST(VectorizedAgreementTest, FailsOnMissingSourceData) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput empty;
  auto r = ExecuteVectorized(s->workflow, empty);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(VectorizedAgreementTest, FailsOnStaleWorkflow) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  Workflow w = s->workflow;
  Schema sch = Schema::MakeOrDie({{"X", DataType::kInt64}});
  w.AddRecordSet({"orphan", sch, 0});
  auto r = ExecuteVectorized(w, MakeFig1Input(1, 10));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// A missing surrogate-key lookup fails the columnar SurrogateKey kernel
// and must surface the node context, identically to the other engines.
TEST(VectorizedAgreementTest, PropagatesActivityErrorsWithNodeContext) {
  auto s = BuildFig4Scenario();  // always carries surrogate-key activities
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig4Input(1, 100);
  ASSERT_FALSE(input.context.lookups.empty());
  input.context.lookups.clear();
  VectorizedOptions options;
  options.num_threads = 4;
  options.batch_size = 8;
  auto r = ExecuteVectorized(s->workflow, input, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("executing node"), std::string::npos)
      << r.status().ToString();
}

// An armed engine.vectorized_batch fault fails a run cleanly; with one
// thread the hit→batch mapping is deterministic, so the same schedule
// fails the same way twice, and disarming restores normal execution.
TEST(VectorizedAgreementTest, BatchFaultFailsCleanlyAndDeterministically) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(3, 200);
  VectorizedOptions options;
  options.num_threads = 1;
  options.batch_size = 32;

  FaultSchedule schedule;
  FaultSpec spec;
  spec.site = FaultSite::kVectorizedBatch;
  spec.hit = 2;
  spec.kind = FaultKind::kError;
  schedule.faults.push_back(spec);

  std::string first_message;
  for (int run = 0; run < 2; ++run) {
    ScopedFaultInjection arm(schedule);
    auto r = ExecuteVectorized(s->workflow, input, options);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    if (run == 0) {
      first_message = r.status().ToString();
    } else {
      EXPECT_EQ(first_message, r.status().ToString());
    }
    FaultStats stats = FaultInjector::Global().Stats();
    EXPECT_EQ(stats.fired[static_cast<int>(FaultSite::kVectorizedBatch)],
              1u);
  }
  auto r = ExecuteVectorized(s->workflow, input, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

}  // namespace
}  // namespace etlopt
