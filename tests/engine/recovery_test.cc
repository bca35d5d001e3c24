#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "activity/templates.h"
#include "common/random.h"
#include "contract/contract.h"
#include "fault/fault_injector.h"
#include "optimizer/transitions.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

RecoveryOptions FastOptions(const std::string& dir = "") {
  RecoveryOptions options;
  options.checkpoint_dir = dir;
  options.retry.initial_backoff_millis = 1;
  options.retry.max_backoff_millis = 2;
  return options;
}

FaultSpec MakeSpec(FaultSite site, uint64_t hit, FaultKind kind) {
  FaultSpec spec;
  spec.site = site;
  spec.hit = hit;
  spec.kind = kind;
  return spec;
}

TEST(RecoveryOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateRecoveryOptions(RecoveryOptions{}).ok());
}

TEST(RecoveryOptionsTest, RejectsNegativeDeadline) {
  RecoveryOptions options;
  options.deadline_millis = -1;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
}

TEST(RecoveryOptionsTest, RejectsBadRetryPolicy) {
  RecoveryOptions options;
  options.retry.max_attempts = 0;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
  options = RecoveryOptions{};
  options.retry.initial_backoff_millis = -3;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
}

TEST(RecoveryOptionsTest, ExecuteValidatesUpFront) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  RecoveryOptions options;
  options.deadline_millis = -7;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(s->workflow, MakeFig1Input(1, 10));
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(RecoveryTest, MatchesPlainExecutorWithoutFaults) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(11, 120);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  RecoverableExecutor no_ckpt(FastOptions());
  RecoveryStats stats;
  auto r = no_ckpt.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameRun(*plain, r));
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(stats.resumed);

  std::string dir = ScratchDir("recovery_plain");
  RecoverableExecutor with_ckpt(FastOptions(dir));
  auto r2 = with_ckpt.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(SameRun(*plain, r2));
  EXPECT_GT(stats.checkpoints_written, 0u);
  fs::remove_all(dir);
}

TEST(RecoveryTest, RetryMasksTransientFaults) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(5, 80);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  FaultSchedule schedule;
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, 0, FaultKind::kError));
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, 3, FaultKind::kError));
  ScopedFaultInjection arm(schedule);
  RecoverableExecutor exec(FastOptions());
  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameRun(*plain, r));
  EXPECT_GE(stats.retries, 2u);
}

// The driver hands a node's inputs to its chain by move, so a retried
// step must fail before anything consumed them: the kActivityExecute hit
// does. Two transient faults on a three-member chain node are retried,
// and the run still loads exactly what the unmerged workflow loads.
TEST(RecoveryTest, RetriedChainNodeIsByteIdentical) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(9, 150);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  Workflow merged = s->workflow;
  ASSERT_TRUE(ApplyMerge(merged, s->to_euro, s->a2e_date).ok());
  ASSERT_TRUE(ApplyMerge(merged, s->to_euro, s->aggregate).ok());
  ASSERT_TRUE(merged.Refresh().ok());
  ASSERT_EQ(merged.chain(s->to_euro).size(), 3u);
  // The chain node's first attempt is the hit after every activity node
  // ahead of it in topo order.
  uint64_t hit = 0;
  for (NodeId id : merged.TopoOrder()) {
    if (id == s->to_euro) break;
    if (merged.IsActivity(id)) ++hit;
  }

  FaultSchedule schedule;
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, hit, FaultKind::kError));
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, hit + 1, FaultKind::kError));
  ScopedFaultInjection arm(schedule);
  RecoverableExecutor exec(FastOptions());
  RecoveryStats stats;
  auto r = exec.Execute(merged, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.node_executions[s->to_euro], 1u);
  for (const auto& [name, rows] : plain->target_data) {
    auto it = r->target_data.find(name);
    ASSERT_NE(it, r->target_data.end()) << "missing target " << name;
    EXPECT_EQ(rows, it->second) << "target " << name;
  }
}

// A scalar function that fails with a retryable code once, then works.
StatusOr<Value> FnUnavailableOnce(const std::vector<Value>& args) {
  static std::atomic<int> calls{0};
  if (calls++ == 0) return Status::Unavailable("flaky scalar function");
  return args[0];
}

// A retryable failure after the chain consumed its inputs cannot be
// retried on those inputs; the run fails cleanly instead of loading the
// moved-from rows.
TEST(RecoveryTest, RetryAfterInputsConsumedFailsCleanly) {
  ASSERT_TRUE(
      RegisterScalarFunction("test_unavailable_once", &FnUnavailableOnce)
          .ok());
  Schema schema = Schema::MakeOrDie({{"ID", DataType::kInt64}});
  Workflow w;
  NodeId src = w.AddRecordSet({"S", schema, 3});
  NodeId fn = *w.AddActivity(*MakeInPlaceFunction("flaky",
                                                  "test_unavailable_once",
                                                  "ID", DataType::kInt64),
                             {src});
  NodeId dst = w.AddRecordSet({"T", schema, 0});
  ASSERT_TRUE(w.Connect(fn, dst).ok());
  ASSERT_TRUE(w.Finalize().ok());
  ExecutionInput input;
  for (int64_t i = 1; i <= 3; ++i) {
    input.source_data["S"].push_back(Record({Value::Int(i)}));
  }
  RecoverableExecutor exec(FastOptions());
  auto r = exec.Execute(w, input);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("inputs were consumed"),
            std::string::npos)
      << r.status().ToString();
}

TEST(RecoveryTest, ExhaustedRetriesSurfaceCleanly) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  FaultSchedule schedule;
  // More consecutive transient faults than max_attempts can absorb.
  for (uint64_t h = 0; h < 8; ++h) {
    schedule.faults.push_back(
        MakeSpec(FaultSite::kActivityExecute, h, FaultKind::kError));
  }
  ScopedFaultInjection arm(schedule);
  RecoveryOptions options = FastOptions();
  options.retry.max_attempts = 2;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(s->workflow, MakeFig1Input(5, 40));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
}

TEST(RecoveryTest, CrashThenResumeIsByteIdentical) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(21, 150);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  std::string dir = ScratchDir("recovery_resume");
  RecoveryOptions options = FastOptions(dir);
  options.checkpoint_policy = CheckpointPolicy::kAllNodes;
  RecoverableExecutor exec(options);

  {
    FaultSchedule schedule;
    schedule.faults.push_back(
        MakeSpec(FaultSite::kActivityExecute, 2, FaultKind::kCrash));
    ScopedFaultInjection arm(schedule);
    auto crashed = exec.Execute(s->workflow, input);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(IsInjectedCrash(crashed.status()))
        << crashed.status().ToString();
  }

  RecoveryStats stats;
  auto resumed = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(stats.resumed);
  EXPECT_GT(stats.checkpoints_loaded, 0u);
  EXPECT_GT(stats.nodes_skipped, 0u);
  EXPECT_TRUE(SameRun(*plain, resumed));
  // Successful run cleaned its recovery points.
  EXPECT_FALSE(fs::exists(dir) && !fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(RecoveryTest, CheckpointsFromDifferentInputAreNotResumed) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input_a = MakeFig1Input(1, 60);
  ExecutionInput input_b = MakeFig1Input(2, 60);
  ASSERT_NE(ExecutionInputFingerprint(input_a),
            ExecutionInputFingerprint(input_b));

  std::string dir = ScratchDir("recovery_stale");
  RecoveryOptions options = FastOptions(dir);
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  ASSERT_TRUE(exec.Execute(s->workflow, input_a).ok());

  auto plain_b = ExecuteWorkflow(s->workflow, input_b);
  ASSERT_TRUE(plain_b.ok());
  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input_b, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_TRUE(SameRun(*plain_b, r));
  fs::remove_all(dir);
}

TEST(RecoveryTest, CorruptCheckpointFilesAreRejectedAndRecomputed) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(33, 90);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  std::string dir = ScratchDir("recovery_corrupt");
  RecoveryOptions options = FastOptions(dir);
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  ASSERT_TRUE(exec.Execute(s->workflow, input).ok());

  // Flip one byte in every persisted checkpoint.
  size_t corrupted = 0;
  for (const auto& run_entry : fs::directory_iterator(dir)) {
    for (const auto& entry : fs::directory_iterator(run_entry.path())) {
      std::string bytes;
      {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
      }
      ASSERT_FALSE(bytes.empty());
      bytes[bytes.size() / 2] = static_cast<char>(
          static_cast<unsigned char>(bytes[bytes.size() / 2]) ^ 0x40);
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.checkpoints_rejected, corrupted);
  EXPECT_FALSE(stats.resumed);
  EXPECT_TRUE(SameRun(*plain, r));
  fs::remove_all(dir);
}

TEST(RecoveryTest, DeadlineExceededSurfaces) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  FaultSchedule schedule;
  FaultSpec delay = MakeSpec(FaultSite::kActivityExecute, 0, FaultKind::kDelay);
  delay.delay_micros = 20000;  // 20 ms against a 1 ms budget
  schedule.faults.push_back(delay);
  ScopedFaultInjection arm(schedule);
  RecoveryOptions options = FastOptions();
  options.deadline_millis = 1;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(s->workflow, MakeFig1Input(2, 200));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
}

TEST(CheckpointFormatTest, RoundTripIsExact) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefull;
  checkpoint.input_hash = 0xfedcba9876543210ull;
  checkpoint.node = 7;
  checkpoint.rows_out = {{3, 120}, {5, 0}, {9, 7777}};
  checkpoint.rows.push_back(Record({Value::Null(), Value::Bool(true),
                                    Value::Bool(false), Value::Int(-42)}));
  checkpoint.rows.push_back(Record({Value::Int(1), Value::Double(0.1),
                                    Value::Double(-1.5e300),
                                    Value::String("héllo\nworld")}));
  checkpoint.rows.push_back(Record(std::vector<Value>{}));
  checkpoint.rows.push_back(Record({Value::String("")}));

  std::string bytes = SerializeCheckpoint(checkpoint);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->workflow_hash, checkpoint.workflow_hash);
  EXPECT_EQ(parsed->input_hash, checkpoint.input_hash);
  EXPECT_EQ(parsed->node, checkpoint.node);
  EXPECT_EQ(parsed->rows_out, checkpoint.rows_out);
  ASSERT_EQ(parsed->rows.size(), checkpoint.rows.size());
  for (size_t i = 0; i < checkpoint.rows.size(); ++i) {
    EXPECT_EQ(parsed->rows[i], checkpoint.rows[i]) << "row " << i;
  }
  // Byte-exact re-serialization.
  EXPECT_EQ(SerializeCheckpoint(*parsed), bytes);
}

TEST(CheckpointFormatTest, EveryTruncationIsRejectedCleanly) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 1;
  checkpoint.input_hash = 2;
  checkpoint.node = 3;
  checkpoint.rows_out = {{1, 10}};
  checkpoint.rows.push_back(
      Record({Value::Int(5), Value::String("abc"), Value::Double(2.5)}));
  std::string bytes = SerializeCheckpoint(checkpoint);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ParseCheckpoint(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << len << " accepted";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

TEST(CheckpointFormatTest, EveryBitFlipIsRejectedCleanly) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0xdeadbeef;
  checkpoint.input_hash = 0xcafef00d;
  checkpoint.node = 4;
  checkpoint.rows_out = {{2, 20}, {4, 9}};
  checkpoint.rows.push_back(Record({Value::String("payload"), Value::Int(9)}));
  checkpoint.rows.push_back(Record({Value::Bool(true), Value::Null()}));
  const std::string bytes = SerializeCheckpoint(checkpoint);
  Rng rng(99);
  // All offsets for a small checkpoint is feasible; flip one bit each.
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^
        (1u << rng.UniformIndex(8)));
    auto parsed = ParseCheckpoint(corrupt);
    // The checksum guards the payload; magic/length flips fail framing.
    EXPECT_FALSE(parsed.ok()) << "bit flip at " << offset << " accepted";
  }
}

TEST(CheckpointFormatTest, GarbageIsRejected) {
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("ETLCKPT1").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint at all").ok());
  std::string huge_count("ETLCKPT1", 8);
  huge_count += std::string(8, '\xff');  // absurd payload length
  huge_count += std::string(64, 'x');
  EXPECT_FALSE(ParseCheckpoint(huge_count).ok());
}

TEST(InputFingerprintTest, SensitiveToDataAndLookups) {
  ExecutionInput a;
  a.source_data["S"] = {Record({Value::Int(1), Value::String("x")})};
  ExecutionInput b = a;
  EXPECT_EQ(ExecutionInputFingerprint(a), ExecutionInputFingerprint(b));
  b.source_data["S"][0].value(0) = Value::Int(2);
  EXPECT_NE(ExecutionInputFingerprint(a), ExecutionInputFingerprint(b));
  ExecutionInput c = a;
  c.context.lookups["L"][{Value::Int(1)}] = Value::Int(100);
  EXPECT_NE(ExecutionInputFingerprint(a), ExecutionInputFingerprint(c));
}

}  // namespace
}  // namespace etlopt
