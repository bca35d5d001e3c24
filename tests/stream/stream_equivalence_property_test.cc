// The ISSUE 6 headline property: for any workflow, any batch
// partitioning N in {1, 2, 7, 64}, and any injected fault schedule, the
// streamed output is byte-identical — as a multiset per target, with
// exactly equal rows_out — to the one-shot batch run of the same
// capture.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "fault/fault_injector.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

std::string UniqueDir(const char* tag) {
  static int counter = 0;
  std::string dir = (fs::temp_directory_path() /
                     (std::string("etlopt_streq_") + tag + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(counter++)))
                        .string();
  fs::remove_all(dir);
  return dir;
}

struct Scenario {
  Workflow workflow;
  ExecutionInput input;
  ExecutionResult baseline;
};

Scenario MakeScenario(WorkloadCategory category, uint64_t seed,
                      size_t rows_per_source) {
  GeneratorOptions options;
  options.category = category;
  options.seed = seed;
  auto generated = GenerateWorkflow(options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  Scenario s;
  s.workflow = std::move(generated->workflow);
  s.input = GenerateInputFor(s.workflow, seed * 31 + 4, rows_per_source);
  auto baseline = ExecuteWorkflow(s.workflow, s.input);
  EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
  s.baseline = std::move(baseline).value();
  return s;
}

void ExpectStreamedEqualsBatch(const Scenario& s, const ExecutionResult& got,
                               const std::string& label) {
  ASSERT_EQ(s.baseline.target_data.size(), got.target_data.size()) << label;
  for (const auto& [name, rows] : s.baseline.target_data) {
    auto it = got.target_data.find(name);
    ASSERT_NE(it, got.target_data.end()) << label << " target " << name;
    EXPECT_TRUE(SameRecordMultiset(rows, it->second))
        << label << " target " << name;
  }
  EXPECT_EQ(s.baseline.rows_out, got.rows_out) << label;
}

TEST(StreamEquivalenceTest, AnyPartitioningMatchesBatchRun) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Scenario s = MakeScenario(WorkloadCategory::kSmall, seed, 120);
    for (int64_t n : {1, 2, 7, 64}) {
      StreamOptions options;
      options.num_batches = n;
      auto streamed = StreamExecutor(options).Run(s.workflow, s.input);
      const std::string label =
          "seed " + std::to_string(seed) + " N=" + std::to_string(n);
      ASSERT_TRUE(streamed.ok())
          << label << ": " << streamed.status().ToString();
      ExpectStreamedEqualsBatch(s, *streamed, label);
    }
  }
}

TEST(StreamEquivalenceTest, MediumWorkflowMatchesBatchRun) {
  Scenario s = MakeScenario(WorkloadCategory::kMedium, 17, 200);
  for (int64_t n : {2, 7}) {
    StreamOptions options;
    options.num_batches = n;
    auto streamed = StreamExecutor(options).Run(s.workflow, s.input);
    const std::string label = "N=" + std::to_string(n);
    ASSERT_TRUE(streamed.ok())
        << label << ": " << streamed.status().ToString();
    ExpectStreamedEqualsBatch(s, *streamed, label);
  }
}

TEST(StreamEquivalenceTest, EventTimeWindowingMatchesBatchRun) {
  GeneratorOptions generator;
  generator.category = WorkloadCategory::kSmall;
  generator.seed = 5;
  generator.with_event_time = true;
  auto g = GenerateWorkflow(generator);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  Scenario s;
  s.workflow = std::move(g->workflow);
  InputGenOptions input_options;
  input_options.rows_per_source = 150;
  s.input = GenerateInputFor(s.workflow, 8, input_options);
  auto baseline = ExecuteWorkflow(s.workflow, s.input);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  s.baseline = std::move(baseline).value();
  for (int64_t window : {1, 50, 400, 1000000}) {
    StreamOptions options;
    options.event_time_column = kEventTimeAttr;
    options.window_millis = window;
    auto streamed = StreamExecutor(options).Run(s.workflow, s.input);
    const std::string label = "window=" + std::to_string(window);
    ASSERT_TRUE(streamed.ok())
        << label << ": " << streamed.status().ToString();
    ExpectStreamedEqualsBatch(s, *streamed, label);
  }
}

// Randomized fault schedules (errors + delays + crashes over every
// registered site, the two stream sites included): an armed run either
// returns the exact batch result or a clean non-OK Status, and once
// restarts clear the schedule the stream converges over its surviving
// checkpoint to the exact batch result.
TEST(StreamEquivalenceTest, RandomFaultSchedulesNeverCorruptOutput) {
  Scenario s = MakeScenario(WorkloadCategory::kMedium, 17, 200);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string dir = UniqueDir("random");
    FaultScheduleOptions schedule_options;
    schedule_options.num_faults = 6;
    schedule_options.max_hit = 48;
    schedule_options.delay_micros = 50;
    FaultSchedule schedule = MakeRandomFaultSchedule(seed, schedule_options);
    StreamOptions options;
    options.num_batches = 5;
    options.checkpoint_dir = dir;
    options.retry.max_attempts = 4;
    options.retry.initial_backoff_millis = 1;
    options.retry.max_backoff_millis = 2;
    StreamExecutor exec(options);
    for (int attempt = 0; attempt < 4; ++attempt) {
      ScopedFaultInjection arm(schedule);
      auto r = exec.Run(s.workflow, s.input);
      if (r.ok()) {
        ExpectStreamedEqualsBatch(s, *r, "seed " + std::to_string(seed));
      } else {
        EXPECT_FALSE(r.status().message().empty());
      }
    }
    // Faults cleared: the next restart completes exactly.
    auto r = exec.Run(s.workflow, s.input);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    ExpectStreamedEqualsBatch(s, *r, "seed " + std::to_string(seed));
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace etlopt
