// RecoverableExecutor honoring an optimizer-placed RecoveryPointPlan
// (CheckpointPolicy::kRecoveryPlan): checkpoints land at exactly the
// plan's nodes, crash/resume through the recovery.place_checkpoint fault
// site stays byte-identical, and stale sibling run directories are
// garbage-collected under the bounded retention cap.

#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "contract/contract.h"
#include "cost/cost_model.h"
#include "cost/state_cost.h"
#include "fault/fault_injector.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

class RecoveryPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = BuildFig1Scenario();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    workflow_ = std::move(s->workflow);
    auto bd = ComputeCostBreakdown(workflow_, model_);
    ASSERT_TRUE(bd.ok()) << bd.status().ToString();
    // Frequent failures + cheap checkpoints: places several points.
    ReliabilityParams params;
    params.failure_rate_per_cost = 1e-2;
    params.checkpoint_setup_cost = 1.0;
    params.checkpoint_cost_per_row = 0.001;
    plan_ = PlaceRecoveryPoints(workflow_, *bd, params);
    ASSERT_TRUE(plan_.enabled);
    ASSERT_GE(plan_.labels.size(), 2u)
        << "scenario must place >= 2 points for the resume tests";
    input_ = MakeFig1Input(21, 100);
    auto plain = ExecuteWorkflow(workflow_, input_);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    expected_ = std::move(plain).value();
  }

  RecoveryOptions PlanOptions(const std::string& dir) {
    RecoveryOptions options;
    options.checkpoint_dir = dir;
    options.checkpoint_policy = CheckpointPolicy::kRecoveryPlan;
    options.recovery_plan = plan_;
    options.retry.initial_backoff_millis = 1;
    options.retry.max_backoff_millis = 2;
    return options;
  }

  LinearLogCostModel model_;
  Workflow workflow_;
  RecoveryPointPlan plan_;
  ExecutionInput input_;
  ExecutionResult expected_;
};

TEST_F(RecoveryPlanTest, ValidateRejectsPlanPolicyWithoutPlan) {
  RecoveryOptions options;
  options.checkpoint_policy = CheckpointPolicy::kRecoveryPlan;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
  options.recovery_plan.enabled = true;
  EXPECT_TRUE(ValidateRecoveryOptions(options).ok());
}

TEST_F(RecoveryPlanTest, CheckpointsExactlyThePlannedNodes) {
  const std::string dir = ScratchDir("recplan_sites");
  RecoveryOptions options = PlanOptions(dir);
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  RecoveryStats stats;
  auto r = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameRun(expected_, r));
  EXPECT_EQ(stats.checkpoints_written, plan_.labels.size());
  // Count the files on disk: one per placed node, nothing else.
  size_t files = 0;
  for (const auto& run : fs::directory_iterator(dir)) {
    for (const auto& f : fs::directory_iterator(run.path())) {
      (void)f;
      ++files;
    }
  }
  EXPECT_EQ(files, plan_.labels.size());
  fs::remove_all(dir);
}

TEST_F(RecoveryPlanTest, CrashAtPlacedCheckpointThenResumeIsByteIdentical) {
  const std::string dir = ScratchDir("recplan_crash");
  RecoverableExecutor exec(PlanOptions(dir));
  // Crash while writing the SECOND placed checkpoint: the first one is
  // already persisted, so the rerun must resume from it.
  FaultSchedule schedule;
  FaultSpec spec;
  spec.site = FaultSite::kRecoveryPlaceCheckpoint;
  spec.hit = 1;
  spec.kind = FaultKind::kCrash;
  schedule.faults.push_back(spec);
  {
    ScopedFaultInjection inject(schedule);
    auto crashed = exec.Execute(workflow_, input_);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(IsInjectedCrash(crashed.status()))
        << crashed.status().ToString();
  }
  RecoveryStats stats;
  auto resumed = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(SameRun(expected_, resumed));
  EXPECT_TRUE(stats.resumed);
  EXPECT_GT(stats.checkpoints_loaded, 0u);
  EXPECT_GT(stats.nodes_skipped, 0u);
  fs::remove_all(dir);
}

TEST_F(RecoveryPlanTest, CrashSweepOverPlacedCheckpointSite) {
  // Every hit index of the new site: crash there, rerun clean, compare.
  for (uint64_t hit = 0; hit < plan_.labels.size(); ++hit) {
    SCOPED_TRACE("hit " + std::to_string(hit));
    const std::string dir = ScratchDir("recplan_sweep");
    RecoverableExecutor exec(PlanOptions(dir));
    FaultSchedule schedule;
    FaultSpec spec;
    spec.site = FaultSite::kRecoveryPlaceCheckpoint;
    spec.hit = hit;
    spec.kind = FaultKind::kCrash;
    schedule.faults.push_back(spec);
    {
      ScopedFaultInjection inject(schedule);
      auto crashed = exec.Execute(workflow_, input_);
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(IsInjectedCrash(crashed.status()));
    }
    auto rerun = exec.Execute(workflow_, input_);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_TRUE(SameRun(expected_, rerun));
    fs::remove_all(dir);
  }
}

TEST_F(RecoveryPlanTest, TransientErrorAtPlacedCheckpointIsBestEffort) {
  const std::string dir = ScratchDir("recplan_transient");
  RecoveryOptions options = PlanOptions(dir);
  options.retry.max_attempts = 1;  // no retry: the write just fails
  RecoverableExecutor exec(options);
  FaultSchedule schedule;
  FaultSpec spec;
  spec.site = FaultSite::kRecoveryPlaceCheckpoint;
  spec.hit = 0;
  spec.kind = FaultKind::kError;
  schedule.faults.push_back(spec);
  ScopedFaultInjection inject(schedule);
  RecoveryStats stats;
  auto r = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameRun(expected_, r));
  EXPECT_EQ(stats.checkpoint_write_failures, 1u);
  fs::remove_all(dir);
}

TEST_F(RecoveryPlanTest, WorkUnitLedgerCountsEveryActivityOnce) {
  RecoverableExecutor exec(PlanOptions(ScratchDir("recplan_ledger")));
  RecoveryStats stats;
  auto r = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.node_executions.size(), stats.nodes_executed);
  for (const auto& [id, count] : stats.node_executions) {
    EXPECT_EQ(count, 1u) << "node " << id;
  }
  EXPECT_GT(stats.checkpoint_rows_written, 0u);
}

TEST_F(RecoveryPlanTest, StaleSiblingRunDirsAreGarbageCollected) {
  const std::string dir = ScratchDir("recplan_gc");
  // Plant orphan run directories from "crashed runs over other inputs".
  fs::create_directories(dir);
  std::vector<std::string> orphans;
  for (int i = 0; i < 5; ++i) {
    std::string orphan =
        dir + "/run_000000000000000" + std::to_string(i) + "_dead";
    fs::create_directories(orphan);
    std::ofstream(orphan + "/node_1.ckpt") << "stale";
    orphans.push_back(orphan);
  }
  RecoveryOptions options = PlanOptions(dir);
  options.max_retained_runs = 2;
  RecoverableExecutor exec(options);
  RecoveryStats stats;
  auto r = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.stale_runs_pruned, 3u);
  size_t remaining = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++remaining;
  }
  // 2 retained orphans; the run's own dir was removed on success.
  EXPECT_EQ(remaining, 2u);
  fs::remove_all(dir);
}

TEST_F(RecoveryPlanTest, ZeroRetentionPrunesEveryOrphan) {
  const std::string dir = ScratchDir("recplan_gc0");
  fs::create_directories(dir);
  fs::create_directories(dir + "/run_dead_a");
  fs::create_directories(dir + "/run_dead_b");
  RecoveryOptions options = PlanOptions(dir);
  options.max_retained_runs = 0;
  RecoverableExecutor exec(options);
  RecoveryStats stats;
  auto r = exec.Execute(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.stale_runs_pruned, 2u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST_F(RecoveryPlanTest, GcNeverTouchesTheCurrentRunsCheckpoints) {
  const std::string dir = ScratchDir("recplan_gckeep");
  fs::create_directories(dir);
  fs::create_directories(dir + "/run_dead_a");
  RecoveryOptions options = PlanOptions(dir);
  options.max_retained_runs = 0;
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(workflow_, input_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The orphan is gone; this run's own checkpoints survive.
  size_t run_dirs = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string(), "run_dead_a");
    ++run_dirs;
  }
  EXPECT_EQ(run_dirs, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace etlopt
