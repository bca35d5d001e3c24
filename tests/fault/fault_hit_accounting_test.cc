// Pins the engine.activity_execute hit count: on a fault-free run, every
// engine hits FaultSite::kActivityExecute exactly once per activity node
// it executes, and the stream executor once per activity node per
// micro-batch. Crash schedules (the durable_feed benchmark, the chaos
// soak, the recovery sweeps) place crashes by hit index, so a change to
// this count would silently move every scheduled crash.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>

#include "engine/executor.h"
#include "engine/recovery.h"
#include "engine/vectorized.h"
#include "fault/fault_injector.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

struct Scenario {
  std::string name;
  Workflow workflow;
  ExecutionInput input;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  auto fig1 = BuildFig1Scenario();
  EXPECT_TRUE(fig1.ok());
  out.push_back({"fig1", fig1->workflow, MakeFig1Input(5, 200)});
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = 3;
  auto medium = GenerateWorkflow(options);
  EXPECT_TRUE(medium.ok());
  out.push_back({"medium_seed3", medium->workflow,
                 GenerateInputFor(medium->workflow, 3, 80)});
  return out;
}

// Runs `run` with the injector armed on an empty schedule (pure hit
// counting) and returns the activity-execute hits it made.
uint64_t ActivityHits(const std::function<void()>& run) {
  ScopedFaultInjection arm(FaultSchedule{});
  run();
  return FaultInjector::Global()
      .Stats()
      .hits[static_cast<int>(FaultSite::kActivityExecute)];
}

std::string TempDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("etlopt_hits_" + tag + "_" + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

TEST(FaultHitAccountingTest, OneHitPerExecutedActivityNode) {
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const size_t activities = s.workflow.ActivityNodeIds().size();
    ASSERT_GT(activities, 0u);

    StatusOr<ExecutionResult> r = ExecutionResult{};
    EXPECT_EQ(ActivityHits([&] { r = ExecuteWorkflow(s.workflow, s.input); }),
              activities);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_out.size(), activities);

    for (size_t threads : {1u, 4u}) {
      VectorizedOptions vopts;
      vopts.num_threads = threads;
      vopts.batch_size = 16;
      EXPECT_EQ(ActivityHits([&] {
                  r = ExecuteVectorized(s.workflow, s.input, vopts);
                }),
                activities)
          << "vectorized " << threads;
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }

    // Recoverable, with and without recovery points on every node: the
    // checkpoint writes hit their own sites, never the activity site.
    for (bool checkpoints : {false, true}) {
      RecoveryOptions options;
      if (checkpoints) {
        options.checkpoint_dir = TempDir(s.name);
        options.checkpoint_policy = CheckpointPolicy::kAllNodes;
      }
      RecoverableExecutor exec(options);
      RecoveryStats stats;
      EXPECT_EQ(ActivityHits([&] {
                  r = exec.Execute(s.workflow, s.input, &stats);
                }),
                activities)
          << "recoverable, checkpoints=" << checkpoints;
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(stats.nodes_executed, activities);
      if (checkpoints) fs::remove_all(options.checkpoint_dir);
    }
  }
}

// A resumed run hits the activity site once per node it re-executes, and
// never for the nodes its recovery points serve.
TEST(FaultHitAccountingTest, ResumeHitsOnlyReexecutedNodes) {
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const size_t activities = s.workflow.ActivityNodeIds().size();
    RecoveryOptions options;
    options.checkpoint_dir = TempDir(s.name + "_resume");
    options.checkpoint_policy = CheckpointPolicy::kAllNodes;
    RecoverableExecutor exec(options);

    FaultSchedule crash;
    crash.faults.push_back(FaultSpec{FaultSite::kActivityExecute,
                                     activities / 2, FaultKind::kCrash, 0});
    {
      ScopedFaultInjection arm(crash);
      auto crashed = exec.Execute(s.workflow, s.input);
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(IsInjectedCrash(crashed.status()));
    }

    RecoveryStats stats;
    StatusOr<ExecutionResult> resumed = ExecutionResult{};
    const uint64_t hits = ActivityHits(
        [&] { resumed = exec.Execute(s.workflow, s.input, &stats); });
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(stats.resumed);
    EXPECT_EQ(hits, stats.nodes_executed);
    EXPECT_LT(hits, activities);
    EXPECT_EQ(stats.nodes_executed + stats.nodes_skipped, activities);
    fs::remove_all(options.checkpoint_dir);
  }
}

constexpr size_t kStreamBatches = 5;

TEST(FaultHitAccountingTest, StreamHitsEveryActivityNodeOncePerBatch) {
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const size_t activities = s.workflow.ActivityNodeIds().size();
    StreamOptions options;
    options.num_batches = kStreamBatches;
    StreamStats stats;
    StatusOr<ExecutionResult> r = ExecutionResult{};
    const uint64_t hits = ActivityHits(
        [&] { r = StreamExecutor(options).Run(s.workflow, s.input, &stats); });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.batches_run, kStreamBatches);
    EXPECT_EQ(hits, activities * stats.batches_run);
  }
}

// A stream resumed after a crash in batch k, with a checkpoint after
// every batch, re-runs exactly the batches from k on.
TEST(FaultHitAccountingTest, StreamResumeHitsOnlyTheRemainingBatches) {
  constexpr size_t kCrashBatch = 2;
  for (const Scenario& s : Scenarios()) {
    SCOPED_TRACE(s.name);
    const size_t activities = s.workflow.ActivityNodeIds().size();
    StreamOptions options;
    options.num_batches = kStreamBatches;
    options.checkpoint_dir = TempDir(s.name + "_stream");
    options.checkpoint_every_batches = 1;
    StreamExecutor exec(options);

    FaultSchedule crash;
    crash.faults.push_back(
        FaultSpec{FaultSite::kActivityExecute,
                  activities * kCrashBatch + activities / 2,
                  FaultKind::kCrash, 0});
    {
      ScopedFaultInjection arm(crash);
      auto crashed = exec.Run(s.workflow, s.input);
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(IsInjectedCrash(crashed.status()));
    }

    StreamStats stats;
    StatusOr<ExecutionResult> resumed = ExecutionResult{};
    const uint64_t hits = ActivityHits(
        [&] { resumed = exec.Run(s.workflow, s.input, &stats); });
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(stats.resumed);
    EXPECT_EQ(stats.batches_skipped, kCrashBatch);
    EXPECT_EQ(hits, activities * (kStreamBatches - kCrashBatch));
    auto reference = ExecuteWorkflow(s.workflow, s.input);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(resumed->rows_out, reference->rows_out);
    fs::remove_all(options.checkpoint_dir);
  }
}

}  // namespace
}  // namespace etlopt
