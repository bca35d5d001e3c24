// StreamExecutor unit tests: streamed == one-shot on hand-built
// workflows exercising every incremental operator mode, the serial and
// parallel engines, and checkpoint/resume (ISSUE 6 tentpole).

#include "stream/stream_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "activity/templates.h"
#include "contract/contract.h"
#include "engine/executor.h"
#include "fault/fault_injector.h"
#include "graph/workflow.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

Record Row2(int64_t k, const char* s) {
  Record r;
  r.Append(Value::Int(k));
  r.Append(Value::String(s));
  return r;
}

// L(K, A) join R(K, B) on K -> T.
struct JoinScenario {
  Workflow workflow;
  ExecutionInput input;
};

JoinScenario MakeJoinScenario() {
  JoinScenario s;
  Schema left = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"A", DataType::kString}});
  Schema right = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"B", DataType::kString}});
  Schema out = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"A", DataType::kString},
                                  {"B", DataType::kString}});
  NodeId l = s.workflow.AddRecordSet({"L", left, 32.0});
  NodeId r = s.workflow.AddRecordSet({"R", right, 32.0});
  auto join = MakeJoin("join", {"K"}, 0.5);
  EXPECT_TRUE(join.ok());
  auto act = s.workflow.AddActivity(*join, {l, r});
  EXPECT_TRUE(act.ok());
  NodeId t = s.workflow.AddRecordSet({"T", out, 32.0});
  EXPECT_TRUE(s.workflow.Connect(*act, t).ok());
  EXPECT_TRUE(s.workflow.Finalize().ok());

  auto& lrows = s.input.source_data["L"];
  auto& rrows = s.input.source_data["R"];
  for (int64_t i = 0; i < 32; ++i) {
    lrows.push_back(Row2(i % 7, "l"));
    rrows.push_back(Row2(i % 5, "r"));
  }
  // NULL keys never join, on either side.
  Record null_left;
  null_left.Append(Value::Null());
  null_left.Append(Value::String("ln"));
  lrows.push_back(null_left);
  Record null_right;
  null_right.Append(Value::Null());
  null_right.Append(Value::String("rn"));
  rrows.push_back(null_right);
  return s;
}

TEST(StreamExecutorTest, JoinStreamsIncrementally) {
  JoinScenario s = MakeJoinScenario();
  auto baseline = ExecuteWorkflow(s.workflow, s.input);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  StreamOptions options;
  options.num_batches = 7;
  StreamStats stats;
  auto streamed = StreamExecutor(options).Run(s.workflow, s.input, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(SameRun(*baseline, streamed, Order::kMultiset));
  EXPECT_EQ(stats.batches_run, 7u);
  EXPECT_EQ(stats.delta_nodes, 1u);  // the join runs in delta mode
  EXPECT_EQ(stats.refresh_nodes, 0u);
  EXPECT_EQ(stats.batch_micros.size(), stats.batches_run);
}

TEST(StreamExecutorTest, PrimaryKeyDedupsAcrossBatchBoundaries) {
  Workflow w;
  Schema schema = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"A", DataType::kString}});
  NodeId src = w.AddRecordSet({"S", schema, 24.0});
  auto pk = MakePrimaryKeyCheck("pk", {"K"}, 0.5);
  ASSERT_TRUE(pk.ok());
  auto act = w.AddActivity(*pk, {src});
  ASSERT_TRUE(act.ok());
  NodeId t = w.AddRecordSet({"T", schema, 24.0});
  ASSERT_TRUE(w.Connect(*act, t).ok());
  ASSERT_TRUE(w.Finalize().ok());

  ExecutionInput input;
  for (int64_t i = 0; i < 24; ++i) {
    // Key i%6 recurs in every batch; only the first survives.
    input.source_data["S"].push_back(
        Row2(i % 6, i < 6 ? "first" : "dup"));
  }
  auto baseline = ExecuteWorkflow(w, input);
  ASSERT_TRUE(baseline.ok());
  StreamOptions options;
  options.num_batches = 4;
  auto streamed = StreamExecutor(options).Run(w, input);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // First occurrences arrive in capture order: exact, not just multiset.
  EXPECT_TRUE(SameRun(*baseline, streamed));
}

TEST(StreamExecutorTest, AggregationRefreshMatchesBatch) {
  Workflow w;
  Schema schema = Schema::MakeOrDie(
      {{"G", DataType::kInt64}, {"V", DataType::kDouble}});
  NodeId src = w.AddRecordSet({"S", schema, 40.0});
  auto agg = MakeAggregation("agg", {"G"},
                             {{AggFn::kSum, "V", "SUM_V"},
                              {AggFn::kCount, "V", "CNT_V"},
                              {AggFn::kAvg, "V", "AVG_V"},
                              {AggFn::kMin, "V", "MIN_V"},
                              {AggFn::kMax, "V", "MAX_V"}},
                             0.2);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto act = w.AddActivity(*agg, {src});
  ASSERT_TRUE(act.ok());
  Schema out = Schema::MakeOrDie({{"G", DataType::kInt64},
                                  {"SUM_V", DataType::kDouble},
                                  {"CNT_V", DataType::kInt64},
                                  {"AVG_V", DataType::kDouble},
                                  {"MIN_V", DataType::kDouble},
                                  {"MAX_V", DataType::kDouble}});
  NodeId t = w.AddRecordSet({"T", out, 8.0});
  ASSERT_TRUE(w.Connect(*act, t).ok());
  ASSERT_TRUE(w.Finalize().ok());

  ExecutionInput input;
  for (int64_t i = 0; i < 40; ++i) {
    Record r;
    r.Append(Value::Int(i % 8));
    r.Append(i % 11 == 0 ? Value::Null() : Value::Double(0.1 * i - 1.5));
    input.source_data["S"].push_back(std::move(r));
  }
  auto baseline = ExecuteWorkflow(w, input);
  ASSERT_TRUE(baseline.ok());
  for (size_t n : {1u, 3u, 40u}) {
    StreamOptions options;
    options.num_batches = static_cast<int64_t>(n);
    StreamStats stats;
    auto streamed = StreamExecutor(options).Run(w, input, &stats);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    // Refresh output: bit-exact including float sums (same per-group
    // addition order as the batch run).
    EXPECT_TRUE(SameRun(*baseline, streamed));
    EXPECT_EQ(stats.refresh_nodes, 1u);
  }
}

TEST(StreamExecutorTest, BagOperatorsRefreshCorrectly) {
  for (bool intersection : {false, true}) {
    Workflow w;
    Schema schema = Schema::MakeOrDie(
        {{"K", DataType::kInt64}, {"A", DataType::kString}});
    NodeId l = w.AddRecordSet({"L", schema, 20.0});
    NodeId r = w.AddRecordSet({"R", schema, 20.0});
    auto op = intersection ? MakeIntersection("cap", 0.5)
                           : MakeDifference("minus", 0.5);
    ASSERT_TRUE(op.ok());
    auto act = w.AddActivity(*op, {l, r});
    ASSERT_TRUE(act.ok());
    NodeId t = w.AddRecordSet({"T", schema, 20.0});
    ASSERT_TRUE(w.Connect(*act, t).ok());
    ASSERT_TRUE(w.Finalize().ok());

    ExecutionInput input;
    for (int64_t i = 0; i < 20; ++i) {
      input.source_data["L"].push_back(Row2(i % 4, "x"));
      input.source_data["R"].push_back(Row2(i % 6, "x"));
    }
    auto baseline = ExecuteWorkflow(w, input);
    ASSERT_TRUE(baseline.ok());
    StreamOptions options;
    options.num_batches = 5;
    auto streamed = StreamExecutor(options).Run(w, input);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(SameRun(*baseline, streamed, Order::kMultiset));
  }
}

TEST(StreamExecutorTest, Fig1StreamsAcrossBatchCounts) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExecutionInput input = MakeFig1Input(/*seed=*/3, /*rows_per_source=*/120);
  auto baseline = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int64_t n : {1, 2, 7, 64}) {
    StreamOptions options;
    options.num_batches = n;
    auto streamed = StreamExecutor(options).Run(s->workflow, input);
    ASSERT_TRUE(streamed.ok())
        << "N=" << n << ": " << streamed.status().ToString();
    EXPECT_TRUE(SameRun(*baseline, streamed, Order::kMultiset));
  }
}

TEST(StreamExecutorTest, RejectsInvalidOptionsUpFront) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(1, 10);
  StreamOptions options;
  options.num_batches = 0;
  auto r = StreamExecutor(options).Run(s->workflow, input);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(StreamExecutorTest, CheckpointPersistsAndResumes) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(/*seed=*/7, /*rows_per_source=*/80);
  auto baseline = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(baseline.ok());
  const std::string dir = ScratchDir("stream_resume");
  StreamOptions options;
  options.num_batches = 6;
  options.checkpoint_dir = dir;
  options.checkpoint_every_batches = 2;
  options.remove_checkpoints_on_success = false;
  StreamExecutor exec(options);

  StreamStats first;
  auto run1 = exec.Run(s->workflow, input, &first);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  EXPECT_TRUE(SameRun(*baseline, run1, Order::kMultiset));
  EXPECT_EQ(first.batches_run, 6u);
  EXPECT_FALSE(first.resumed);
  EXPECT_GT(first.checkpoints_written, 0u);
  ASSERT_FALSE(fs::is_empty(dir));

  // Second run over the surviving checkpoint: nothing left to do, same
  // result restored from the frontier.
  StreamStats second;
  auto run2 = exec.Run(s->workflow, input, &second);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_TRUE(SameRun(*baseline, run2, Order::kMultiset));
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.batches_run, 0u);
  EXPECT_EQ(second.batches_skipped, 6u);

  // ClearCheckpoints: the next run starts from scratch.
  ASSERT_TRUE(exec.ClearCheckpoints(s->workflow, input).ok());
  StreamStats third;
  auto run3 = exec.Run(s->workflow, input, &third);
  ASSERT_TRUE(run3.ok());
  EXPECT_FALSE(third.resumed);
  EXPECT_EQ(third.batches_run, 6u);
  fs::remove_all(dir);
}

TEST(StreamExecutorTest, CorruptCheckpointIsRejectedNotTrusted) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(/*seed=*/9, /*rows_per_source=*/60);
  auto baseline = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(baseline.ok());
  const std::string dir = ScratchDir("stream_corrupt");
  StreamOptions options;
  options.num_batches = 4;
  options.checkpoint_dir = dir;
  options.remove_checkpoints_on_success = false;
  StreamExecutor exec(options);
  ASSERT_TRUE(exec.Run(s->workflow, input).ok());

  // Flip bytes in every checkpoint file.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::in);
    out.seekp(24);
    out.write("XXXXXXXX", 8);
  }
  StreamStats stats;
  auto rerun = exec.Run(s->workflow, input, &stats);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_GE(stats.checkpoints_rejected, 1u);
  EXPECT_EQ(stats.batches_run, 4u);
  EXPECT_TRUE(SameRun(*baseline, rerun, Order::kMultiset));
  fs::remove_all(dir);
}

TEST(StreamExecutorTest, DifferentBatchingDoesNotCrossResume) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(/*seed=*/11, /*rows_per_source=*/50);
  const std::string dir = ScratchDir("stream_keyed");
  StreamOptions options;
  options.num_batches = 4;
  options.checkpoint_dir = dir;
  options.remove_checkpoints_on_success = false;
  ASSERT_TRUE(StreamExecutor(options).Run(s->workflow, input).ok());

  // A different slicing of the same capture has a different fingerprint
  // and must not resume from the other's checkpoint.
  StreamOptions other = options;
  other.num_batches = 9;
  StreamStats stats;
  auto r = StreamExecutor(other).Run(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(stats.batches_run, 9u);
  fs::remove_all(dir);
}

TEST(StreamExecutorTest, EventTimeModeStreamsGeneratedWorkflows) {
  GeneratorOptions generator;
  generator.seed = 21;
  generator.with_event_time = true;
  auto g = GenerateWorkflow(generator);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  InputGenOptions input_options;
  input_options.rows_per_source = 90;
  ExecutionInput input = GenerateInputFor(g->workflow, 6, input_options);
  auto baseline = ExecuteWorkflow(g->workflow, input);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  StreamOptions options;
  options.event_time_column = kEventTimeAttr;
  options.window_millis = 200;
  StreamStats stats;
  auto streamed = StreamExecutor(options).Run(g->workflow, input, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(SameRun(*baseline, streamed, Order::kMultiset));
  EXPECT_GT(stats.batches_run, 1u) << "windowing produced a single batch";
}

// ---- the keyed changelog below an aggregation --------------------------

// S(G, V) -> SUM/COUNT of V per G: the aggregation the keyed-path tests
// build on. Returns the aggregation node.
NodeId AddSumAggregation(Workflow& w, NodeId* source) {
  Schema schema = Schema::MakeOrDie(
      {{"G", DataType::kInt64}, {"V", DataType::kDouble}});
  *source = w.AddRecordSet({"S", schema, 16.0});
  auto agg = MakeAggregation(
      "agg", {"G"},
      {{AggFn::kSum, "V", "SUM_V"}, {AggFn::kCount, "V", "CNT_V"}}, 0.5);
  EXPECT_TRUE(agg.ok()) << agg.status().ToString();
  auto act = w.AddActivity(*agg, {*source});
  EXPECT_TRUE(act.ok()) << act.status().ToString();
  return *act;
}

Schema AggSchema() {
  return Schema::MakeOrDie({{"G", DataType::kInt64},
                            {"SUM_V", DataType::kDouble},
                            {"CNT_V", DataType::kInt64}});
}

// Appends `activity` after `from` and returns the new node.
NodeId Then(Workflow& w, NodeId from, StatusOr<Activity> activity) {
  EXPECT_TRUE(activity.ok()) << activity.status().ToString();
  auto act = w.AddActivity(*activity, {from});
  EXPECT_TRUE(act.ok()) << act.status().ToString();
  return *act;
}

Record GV(int64_t g, double v) {
  Record r;
  r.Append(Value::Int(g));
  r.Append(Value::Double(v));
  return r;
}

// One row per batch. Group 1's SUM leaves [0, 10] at row 2 and re-enters
// at row 4; group 3 enters at row 6 and leaves again at row 7; group 2
// stays inside throughout; group 4 has a NULL.
ExecutionInput ReentryCapture() {
  ExecutionInput input;
  auto& rows = input.source_data["S"];
  rows = {GV(1, 5), GV(2, 3), GV(1, 10), GV(2, 1),
          GV(1, -8), GV(3, 20), GV(3, -15), GV(3, 50)};
  Record null_v;
  null_v.Append(Value::Int(4));
  null_v.Append(Value::Null());
  rows.push_back(null_v);
  return input;
}

ExecutionInput Prefix(const ExecutionInput& input, size_t n) {
  ExecutionInput prefix;
  prefix.context = input.context;
  for (const auto& [name, rows] : input.source_data) {
    prefix.source_data[name].assign(
        rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(n, rows.size())));
  }
  return prefix;
}

// S -> agg -> DomainCheck(SUM_V in [0, 10]) -> T.
Workflow ReentryWorkflow() {
  Workflow w;
  NodeId src = 0;
  NodeId agg = AddSumAggregation(w, &src);
  NodeId check =
      Then(w, agg, MakeDomainCheck("in_range", "SUM_V", 0, 10, 0.5));
  NodeId t = w.AddRecordSet({"T", AggSchema(), 8.0});
  EXPECT_TRUE(w.Connect(check, t).ok());
  EXPECT_TRUE(w.Finalize().ok());
  return w;
}

// Streams every prefix of `input` one row per batch (and the whole of it
// in 1, 2 and 3 batches) and compares each run with the one-shot run of
// the same prefix, row for row.
void ExpectEveryPrefixExact(const Workflow& w, const ExecutionInput& input,
                            size_t keyed_nodes) {
  const size_t rows = input.source_data.begin()->second.size();
  for (size_t n = 1; n <= rows; ++n) {
    const ExecutionInput prefix = Prefix(input, n);
    auto baseline = ExecuteWorkflow(w, prefix);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (size_t batches : {n, size_t{1}, size_t{2}, size_t{3}}) {
      StreamOptions options;
      options.num_batches = static_cast<int64_t>(batches);
      StreamStats stats;
      auto streamed = StreamExecutor(options).Run(w, prefix, &stats);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      SCOPED_TRACE("prefix " + std::to_string(n) + ", " +
                   std::to_string(batches) + " batches");
      EXPECT_TRUE(SameRun(*baseline, streamed));
      EXPECT_EQ(stats.keyed_nodes, keyed_nodes);
    }
  }
}

TEST(StreamExecutorTest, KeyedGroupLeavesAFilterAndReenters) {
  Workflow w = ReentryWorkflow();
  ExpectEveryPrefixExact(w, ReentryCapture(), /*keyed_nodes=*/2);
}

TEST(StreamExecutorTest, KeyedAggregationAndFilterInOneChain) {
  // agg, a projection that drops the group key, and two filters, merged
  // into one node: rows of different groups become equal after the
  // projection, and still keep their own keys.
  Workflow w;
  NodeId src = 0;
  NodeId agg = AddSumAggregation(w, &src);
  NodeId drop = Then(w, agg, MakeProjection("drop_g", {"G"}));
  NodeId check =
      Then(w, drop, MakeDomainCheck("in_range", "SUM_V", 0, 10, 0.5));
  NodeId not_null = Then(w, check, MakeNotNull("nn", "SUM_V", 0.9));
  Schema out = Schema::MakeOrDie(
      {{"SUM_V", DataType::kDouble}, {"CNT_V", DataType::kInt64}});
  NodeId t = w.AddRecordSet({"T", out, 8.0});
  ASSERT_TRUE(w.Connect(not_null, t).ok());
  ASSERT_TRUE(w.Finalize().ok());
  ASSERT_TRUE(w.MergeInto(agg, drop).ok());
  ASSERT_TRUE(w.MergeInto(agg, check).ok());
  ASSERT_TRUE(w.MergeInto(agg, not_null).ok());
  ASSERT_TRUE(w.Refresh().ok());
  ASSERT_EQ(w.chain(agg).members().size(), 4u);

  ExecutionInput input = ReentryCapture();
  // Groups 5 and 6 end equal to group 2 once G is dropped.
  for (int64_t g : {5, 6}) {
    input.source_data["S"].push_back(GV(g, 3));
    input.source_data["S"].push_back(GV(g, 1));
  }
  ExpectEveryPrefixExact(w, input, /*keyed_nodes=*/1);
}

TEST(StreamExecutorTest, KeyedAggregationFeedsTwoTargets) {
  // An activity has one consumer, so the aggregation fans out through a
  // staging recordset: agg -> M, M -> NotNull -> ALL and
  // M -> DomainCheck -> IN_RANGE.
  Workflow w;
  NodeId src = 0;
  NodeId agg = AddSumAggregation(w, &src);
  NodeId staged = w.AddRecordSet({"M", AggSchema(), 8.0});
  ASSERT_TRUE(w.Connect(agg, staged).ok());
  NodeId not_null = Then(w, staged, MakeNotNull("nn", "SUM_V", 0.9));
  NodeId all = w.AddRecordSet({"ALL", AggSchema(), 8.0});
  ASSERT_TRUE(w.Connect(not_null, all).ok());
  NodeId check =
      Then(w, staged, MakeDomainCheck("in_range", "SUM_V", 0, 10, 0.5));
  NodeId in_range = w.AddRecordSet({"IN_RANGE", AggSchema(), 8.0});
  ASSERT_TRUE(w.Connect(check, in_range).ok());
  auto finalized = w.Finalize();
  ASSERT_TRUE(finalized.ok()) << finalized.ToString();
  ExpectEveryPrefixExact(w, ReentryCapture(), /*keyed_nodes=*/3);
}

TEST(StreamExecutorTest, KeyedSurrogateKeyMissFailsAtTheSameBatch) {
  // agg -> surrogate key on G. G=7 arrives in batch 2 and G=5 in batch
  // 3; neither is in the lookup table. The stream fails at batch 2 on
  // G=7 (the one-shot run, seeing both, reports G=5).
  Workflow w;
  NodeId src = 0;
  NodeId agg = AddSumAggregation(w, &src);
  NodeId sk =
      Then(w, agg, MakeSurrogateKey("sk", {"G"}, "G_SK", "gmap", {"G"}));
  Schema out = Schema::MakeOrDie({{"SUM_V", DataType::kDouble},
                                  {"CNT_V", DataType::kInt64},
                                  {"G_SK", DataType::kInt64}});
  NodeId t = w.AddRecordSet({"T", out, 8.0});
  ASSERT_TRUE(w.Connect(sk, t).ok());
  ASSERT_TRUE(w.Finalize().ok());

  ExecutionInput input;
  for (int64_t g = 0; g < 4; ++g) {
    input.context.lookups["gmap"][{Value::Int(g)}] = Value::Int(100 + g);
  }
  input.source_data["S"] = {GV(0, 1), GV(1, 2), GV(2, 3), GV(1, 4),
                            GV(7, 5), GV(0, 6), GV(5, 7), GV(3, 8)};
  StreamOptions options;
  options.num_batches = 4;
  StreamStats stats;
  auto streamed = StreamExecutor(options).Run(w, input, &stats);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().ToString(),
            "NotFound: executing node 3 ('sk'): activity 'sk': surrogate "
            "key miss for (7)");
  EXPECT_EQ(stats.batches_run, 2u);
  EXPECT_EQ(stats.keyed_nodes, 2u);
}

TEST(StreamExecutorTest, AggregationIntoBinaryNodeKeepsFullRefresh) {
  for (bool join : {false, true}) {
    Workflow w;
    NodeId src = 0;
    NodeId agg = AddSumAggregation(w, &src);
    Schema side = join ? Schema::MakeOrDie({{"G", DataType::kInt64},
                                            {"W", DataType::kString}})
                       : AggSchema();
    NodeId other = w.AddRecordSet({"R", side, 8.0});
    auto binary = join ? MakeJoin("join", {"G"}, 0.5) : MakeUnion("union");
    ASSERT_TRUE(binary.ok());
    auto act = w.AddActivity(*binary, {agg, other});
    ASSERT_TRUE(act.ok()) << act.status().ToString();
    NodeId check = Then(w, *act, MakeNotNull("nn", "SUM_V", 0.9));
    Schema out = join ? Schema::MakeOrDie({{"G", DataType::kInt64},
                                           {"SUM_V", DataType::kDouble},
                                           {"CNT_V", DataType::kInt64},
                                           {"W", DataType::kString}})
                      : AggSchema();
    NodeId t = w.AddRecordSet({"T", out, 8.0});
    ASSERT_TRUE(w.Connect(check, t).ok());
    ASSERT_TRUE(w.Finalize().ok());

    ExecutionInput input = ReentryCapture();
    for (int64_t g = 0; g < 6; ++g) {
      Record r;
      r.Append(Value::Int(g));
      if (join) {
        r.Append(Value::String("w" + std::to_string(g)));
      } else {
        r.Append(Value::Double(0.5 * static_cast<double>(g)));
        r.Append(Value::Int(g));
      }
      input.source_data["R"].push_back(std::move(r));
    }
    auto baseline = ExecuteWorkflow(w, input);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    StreamOptions options;
    options.num_batches = 5;
    StreamStats stats;
    auto streamed = StreamExecutor(options).Run(w, input, &stats);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(SameRun(*baseline, streamed));
    // agg, the binary node and the filter below it all refresh; none is
    // keyed.
    EXPECT_EQ(stats.refresh_nodes, 3u) << (join ? "join" : "union");
    EXPECT_EQ(stats.keyed_nodes, 0u) << (join ? "join" : "union");
  }
}

TEST(StreamExecutorTest, KeyedBatchRetriedAfterTransientFaultBelowAggregation) {
  Workflow w = ReentryWorkflow();
  ExecutionInput input = ReentryCapture();
  auto baseline = ExecuteWorkflow(w, input);
  ASSERT_TRUE(baseline.ok());
  // Two activity hits per batch (agg, then the filter): each odd hit
  // fails the filter after the aggregation emitted its changelog.
  for (uint64_t hit : {1u, 3u, 5u, 9u}) {
    FaultSchedule schedule;
    FaultSpec spec;
    spec.site = FaultSite::kActivityExecute;
    spec.hit = hit;
    spec.kind = FaultKind::kError;
    schedule.faults.push_back(spec);
    ScopedFaultInjection arm(schedule);
    StreamOptions options;
    options.num_batches = static_cast<int64_t>(
        input.source_data.at("S").size());
    options.retry.max_attempts = 3;
    options.retry.initial_backoff_millis = 1;
    options.retry.max_backoff_millis = 2;
    StreamStats stats;
    auto streamed = StreamExecutor(options).Run(w, input, &stats);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(stats.retries, 1u) << "hit " << hit;
    EXPECT_TRUE(SameRun(*baseline, streamed));
  }
}

TEST(StreamExecutorTest, KeyedTablesRebuiltAfterCrashAndResume) {
  Workflow w = ReentryWorkflow();
  ExecutionInput input = ReentryCapture();
  auto baseline = ExecuteWorkflow(w, input);
  ASSERT_TRUE(baseline.ok());
  const size_t batches = input.source_data.at("S").size();
  for (uint64_t hit = 1; hit < batches; ++hit) {
    const std::string dir = ScratchDir("stream_keyed_resume");
    StreamOptions options;
    options.num_batches = static_cast<int64_t>(batches);
    options.checkpoint_dir = dir;
    options.checkpoint_every_batches = 2;
    {
      FaultSchedule schedule;
      FaultSpec spec;
      spec.site = FaultSite::kStreamSourceNext;
      spec.hit = hit;
      spec.kind = FaultKind::kCrash;
      schedule.faults.push_back(spec);
      ScopedFaultInjection arm(schedule);
      auto crashed = StreamExecutor(options).Run(w, input);
      ASSERT_FALSE(crashed.ok());
      EXPECT_TRUE(IsInjectedCrash(crashed.status()));
    }
    StreamStats stats;
    auto resumed = StreamExecutor(options).Run(w, input, &stats);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(stats.resumed, hit >= 2) << "crash at batch " << hit;
    EXPECT_TRUE(SameRun(*baseline, resumed));
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace etlopt
