// StreamExecutor honoring a RecoveryPointPlan: the checkpoint cadence
// comes from the plan's Young interval instead of the fixed knob,
// plan-driven checkpoint writes hit the recovery.place_checkpoint fault
// site (crash -> resume stays exact), and stale sibling stream
// checkpoints are garbage-collected under the retention cap.

#include "stream/stream_executor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "contract/contract.h"
#include "cost/cost_model.h"
#include "cost/state_cost.h"
#include "engine/executor.h"
#include "fault/fault_injector.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

class StreamPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = BuildFig1Scenario();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    workflow_ = std::move(s->workflow);
    auto bd = ComputeCostBreakdown(workflow_, model_);
    ASSERT_TRUE(bd.ok()) << bd.status().ToString();
    ReliabilityParams params;
    params.failure_rate_per_cost = 1e-2;
    plan_ = PlaceRecoveryPoints(workflow_, *bd, params);
    ASSERT_TRUE(plan_.enabled);
    input_ = MakeFig1Input(31, 96);
  }

  StreamOptions PlanOptions(const std::string& dir) {
    StreamOptions options;
    options.num_batches = 8;
    options.checkpoint_dir = dir;
    options.recovery_plan = plan_;
    options.retry.initial_backoff_millis = 1;
    options.retry.max_backoff_millis = 2;
    return options;
  }

  LinearLogCostModel model_;
  Workflow workflow_;
  RecoveryPointPlan plan_;
  ExecutionInput input_;
};

TEST_F(StreamPlanTest, UsesThePlannedYoungInterval) {
  StreamOptions options = PlanOptions(ScratchDir("streamplan_interval"));
  options.checkpoint_every_batches = 3;  // must be overridden by the plan
  StreamExecutor exec(options);
  StreamStats stats;
  auto r = exec.Run(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.checkpoint_interval,
            PlannedStreamCheckpointInterval(plan_, 8));
  EXPECT_NE(stats.checkpoint_interval, 0u);
  fs::remove_all(options.checkpoint_dir);
}

TEST_F(StreamPlanTest, DisabledPlanKeepsTheKnobCadence) {
  StreamOptions options = PlanOptions(ScratchDir("streamplan_knob"));
  options.recovery_plan = RecoveryPointPlan{};
  options.checkpoint_every_batches = 3;
  StreamExecutor exec(options);
  StreamStats stats;
  auto r = exec.Run(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.checkpoint_interval, 3u);
  fs::remove_all(options.checkpoint_dir);
}

TEST_F(StreamPlanTest, PlanDrivenStreamMatchesOneShotExecution) {
  auto plain = ExecuteWorkflow(workflow_, input_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  StreamOptions options = PlanOptions(ScratchDir("streamplan_exact"));
  StreamExecutor exec(options);
  auto r = exec.Run(workflow_, input_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameRun(*plain, r));
  fs::remove_all(options.checkpoint_dir);
}

TEST_F(StreamPlanTest, CrashAtPlannedCheckpointThenResumeIsExact) {
  auto plain = ExecuteWorkflow(workflow_, input_);
  ASSERT_TRUE(plain.ok());
  const std::string dir = ScratchDir("streamplan_crash");
  StreamOptions options = PlanOptions(dir);
  StreamExecutor exec(options);
  FaultSchedule schedule;
  FaultSpec spec;
  spec.site = FaultSite::kRecoveryPlaceCheckpoint;
  spec.hit = 1;  // second plan-driven checkpoint write
  spec.kind = FaultKind::kCrash;
  schedule.faults.push_back(spec);
  {
    ScopedFaultInjection inject(schedule);
    auto crashed = exec.Run(workflow_, input_);
    // Depending on the Young interval the second write may be the final
    // checkpoint; either the run crashed or it completed before hit 1.
    if (!crashed.ok()) {
      ASSERT_TRUE(IsInjectedCrash(crashed.status()))
          << crashed.status().ToString();
    }
  }
  StreamStats stats;
  auto resumed = exec.Run(workflow_, input_, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(SameRun(*plain, resumed));
  fs::remove_all(dir);
}

TEST_F(StreamPlanTest, StaleStreamCheckpointsAreGarbageCollected) {
  const std::string dir = ScratchDir("streamplan_gc");
  fs::create_directories(dir);
  for (int i = 0; i < 4; ++i) {
    std::ofstream(dir + "/stream_000000000000000" + std::to_string(i) +
                  "_dead.ckpt")
        << "stale";
  }
  std::ofstream(dir + "/unrelated.txt") << "keep me";
  StreamOptions options = PlanOptions(dir);
  options.max_retained_checkpoints = 1;
  StreamExecutor exec(options);
  StreamStats stats;
  auto r = exec.Run(workflow_, input_, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.stale_checkpoints_pruned, 3u);
  size_t ckpts = 0;
  bool unrelated_survives = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "unrelated.txt") unrelated_survives = true;
    if (name.rfind("stream_", 0) == 0) ++ckpts;
  }
  EXPECT_EQ(ckpts, 1u);  // the retained orphan; own checkpoint removed
  EXPECT_TRUE(unrelated_survives);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace etlopt
