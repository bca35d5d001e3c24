#include "engine/vectorized.h"

#include <gtest/gtest.h>

#include "activity/templates.h"
#include "common/macros.h"
#include "optimizer/search.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

// Parallel execution (the vectorized engine at several threads). Its
// contract is stronger than multiset agreement: it reconstructs the
// serial engine's output byte-for-byte — same rows, same order, same
// rows_out — at every thread count.
void ExpectIdenticalToBatch(const Workflow& w, const ExecutionInput& input,
                            const VectorizedOptions& options) {
  auto batch = ExecuteWorkflow(w, input);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto par = ExecuteVectorized(w, input, options);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_EQ(batch->target_data.size(), par->target_data.size());
  for (const auto& [name, rows] : batch->target_data) {
    ASSERT_TRUE(par->target_data.count(name)) << name;
    EXPECT_EQ(rows, par->target_data.at(name))
        << name << ": parallel output differs (order-sensitive compare)";
  }
  EXPECT_EQ(batch->rows_out, par->rows_out);
}

void SweepThreadCounts(const Workflow& w, const ExecutionInput& input) {
  for (size_t threads : {1u, 2u, 8u}) {
    VectorizedOptions options;
    options.num_threads = threads;
    options.batch_size = 64;  // small batches force real fan-out in tests
    ExpectIdenticalToBatch(w, input, options);
  }
}

TEST(ParallelExecTest, MatchesBatchOnFig1) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  SweepThreadCounts(s->workflow, MakeFig1Input(42, 300));
}

TEST(ParallelExecTest, MatchesBatchOnFig4) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  SweepThreadCounts(s->workflow, MakeFig4Input(7, 64));
}

TEST(ParallelExecTest, MatchesBatchOnGeneratedWorkflows) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    GeneratorOptions options;
    options.category = WorkloadCategory::kSmall;
    options.seed = seed;
    auto g = GenerateWorkflow(options);
    ASSERT_TRUE(g.ok());
    SweepThreadCounts(g->workflow, GenerateInputFor(g->workflow, seed, 60));
  }
}

TEST(ParallelExecTest, MatchesBatchOnMediumWorkflow) {
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = 2;
  auto g = GenerateWorkflow(options);
  ASSERT_TRUE(g.ok());
  SweepThreadCounts(g->workflow, GenerateInputFor(g->workflow, 11, 80));
}

TEST(ParallelExecTest, MatchesBatchOnOptimizedWorkflow) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  LinearLogCostModel model;
  auto r = HeuristicSearch(s->workflow, model);
  ASSERT_TRUE(r.ok());
  SweepThreadCounts(r->best.workflow, MakeFig1Input(8, 250));
}

// The generated population exercises filters, functions, surrogate keys,
// unions and aggregations; this workflow covers the remaining partitioned
// operators: PK-check feeding a join.
TEST(ParallelExecTest, MatchesBatchOnJoinWithPkCheck) {
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
    input.source_data["L"].push_back(
        Record({Value::Int(i % 40), Value::Double(i * 1.5)}));
    // Duplicate keys on the build side so the PK-check has work to do,
    // with differing payloads so keep-*first* is observable.
    input.source_data["R"].push_back(
        Record({Value::Int(i % 25), Value::Double(i * 2.0)}));
  }
  SweepThreadCounts(w, input);
}

TEST(ParallelExecTest, MatchesBatchOnDifferenceAndIntersection) {
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

    // Overlapping bags with repeated rows: bag semantics (count-sensitive
    // matching) are where a naive parallel split would go wrong.
    ExecutionInput input;
    for (int i = 0; i < 300; ++i) {
      input.source_data["A"].push_back(
          Record({Value::Int(i % 20), Value::String("x")}));
      if (i % 3 != 0) {
        input.source_data["B"].push_back(
            Record({Value::Int(i % 30), Value::String("x")}));
      }
    }
    SweepThreadCounts(w, input);
  }
}

TEST(ParallelExecTest, DeterministicAcrossRunsAndTuning) {
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
          auto par = ExecuteVectorized(g->workflow, input, options);
          ASSERT_TRUE(par.ok()) << par.status().ToString();
          EXPECT_EQ(reference->target_data, par->target_data)
              << "threads=" << threads << " batch=" << batch
              << " partitions=" << partitions;
          EXPECT_EQ(reference->rows_out, par->rows_out);
        }
      }
    }
  }
}

TEST(ParallelExecTest, ReportsStats) {
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
  // 400 rows per source in batches of 32 are at least 13 batch tasks at
  // each source alone.
  EXPECT_GE(stats.batches, 13u);
  // Fig. 1 runs every member (its aggregation included) on a kernel.
  EXPECT_GT(stats.vectorized_members, 0u);
  EXPECT_GT(stats.vectorized_rows, 0u);
  EXPECT_EQ(stats.fallback_members, 0u);
  EXPECT_EQ(stats.fallback_rows, 0u);
}

TEST(ParallelExecTest, FailsOnMissingSourceData) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput empty;
  auto r = ExecuteVectorized(s->workflow, empty);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ParallelExecTest, FailsOnStaleWorkflow) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  Workflow w = s->workflow;
  // Mutate without Refresh(): the engine must refuse, like the others.
  Schema sch = Schema::MakeOrDie({{"X", DataType::kInt64}});
  w.AddRecordSet({"orphan", sch, 0});
  auto r = ExecuteVectorized(w, MakeFig1Input(1, 10));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// A missing surrogate-key lookup must surface the node context, like the
// serial engine does, with the smallest-batch error kept deterministically.
TEST(ParallelExecTest, PropagatesActivityErrorsWithNodeContext) {
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

}  // namespace
}  // namespace etlopt
