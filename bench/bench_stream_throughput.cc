// Streaming micro-batch throughput (ISSUE 6 gate). Two scenarios:
//
//   * the §4.2 medium generated workflow (aggregation-heavy), and
//   * a hand-built two-source equi-join,
//
// each streamed through StreamExecutor in N micro-batches and compared
// against the naive alternative: re-running the one-shot batch engine
// over the accumulated prefix after every batch (full recomputation).
//
// Headline gate (hard failure on full runs): incremental streaming
// beats per-batch full recomputation by >= 2x on the medium scenario.
// Output equality with the one-shot run is checked on every timed run
// and is a hard failure even under ETLOPT_BENCH_QUICK=1, which
// otherwise shrinks the inputs and demotes the speed gate to
// informational. Reports sustained rows/sec and p99 batch latency vs
// the one-shot run, and the medium scenario's stream-to-one-shot time
// ratio across batch counts (16, 64, 256 and 1,024; 16 and 64 under
// ETLOPT_BENCH_QUICK=1), reported without a gate. Emits
// BENCH_stream_throughput.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "activity/templates.h"
#include "engine/executor.h"
#include "stream/stream_executor.h"
#include "suite_runner.h"
#include "workload/generator.h"

namespace {

using namespace etlopt;
using namespace etlopt::bench;

double MillisOf(const std::function<void()>& fn, int repeats) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

bool SameMultisetResult(const ExecutionResult& a, const ExecutionResult& b) {
  if (a.rows_out != b.rows_out) return false;
  if (a.target_data.size() != b.target_data.size()) return false;
  for (const auto& [name, rows] : a.target_data) {
    auto it = b.target_data.find(name);
    if (it == b.target_data.end()) return false;
    if (!SameRecordMultiset(rows, it->second)) return false;
  }
  return true;
}

double P99Millis(std::vector<int64_t> micros) {
  if (micros.empty()) return 0;
  std::sort(micros.begin(), micros.end());
  const size_t idx =
      std::min(micros.size() - 1,
               static_cast<size_t>(0.99 * static_cast<double>(micros.size())));
  return static_cast<double>(micros[idx]) / 1000.0;
}

struct Scenario {
  std::string name;
  Workflow workflow;
  ExecutionInput input;
  size_t total_rows = 0;
};

Scenario MakeMediumScenario(size_t rows_per_source) {
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = 17;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK_OK(g.status());
  Scenario s;
  s.name = "medium";
  s.workflow = std::move(g->workflow);
  s.input = GenerateInputFor(s.workflow, /*seed=*/4, rows_per_source);
  for (const auto& [name, rows] : s.input.source_data) {
    s.total_rows += rows.size();
  }
  return s;
}

Scenario MakeJoinScenario(size_t rows_per_source) {
  Scenario s;
  s.name = "join";
  Schema left = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"A", DataType::kInt64}});
  Schema right = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"B", DataType::kInt64}});
  Schema out = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"A", DataType::kInt64},
                                  {"B", DataType::kInt64}});
  NodeId l = s.workflow.AddRecordSet(
      {"L", left, static_cast<double>(rows_per_source)});
  NodeId r = s.workflow.AddRecordSet(
      {"R", right, static_cast<double>(rows_per_source)});
  auto join = MakeJoin("join", {"K"}, 0.5);
  ETLOPT_CHECK_OK(join.status());
  auto act = s.workflow.AddActivity(*join, {l, r});
  ETLOPT_CHECK_OK(act.status());
  NodeId t = s.workflow.AddRecordSet(
      {"T", out, static_cast<double>(rows_per_source)});
  ETLOPT_CHECK_OK(s.workflow.Connect(*act, t));
  ETLOPT_CHECK_OK(s.workflow.Finalize());
  // ~4 matches per key on each side keeps the join output linear-ish.
  const int64_t keys = static_cast<int64_t>(rows_per_source) / 4 + 1;
  for (int64_t i = 0; i < static_cast<int64_t>(rows_per_source); ++i) {
    Record lr;
    lr.Append(Value::Int(i % keys));
    lr.Append(Value::Int(i));
    s.input.source_data["L"].push_back(std::move(lr));
    Record rr;
    rr.Append(Value::Int((i * 7) % keys));
    rr.Append(Value::Int(-i));
    s.input.source_data["R"].push_back(std::move(rr));
  }
  s.total_rows = 2 * rows_per_source;
  return s;
}

// Builds the capture prefix covering batches [0, b] with the same slice
// boundaries MicroBatchSource uses, for the naive recomputation loop.
ExecutionInput PrefixInput(const ExecutionInput& input, size_t b,
                           size_t num_batches) {
  ExecutionInput prefix;
  prefix.context = input.context;
  for (const auto& [name, rows] : input.source_data) {
    const size_t hi = (b + 1) * rows.size() / num_batches;
    prefix.source_data[name].assign(rows.begin(),
                                    rows.begin() + static_cast<ptrdiff_t>(hi));
  }
  return prefix;
}

struct ScenarioNumbers {
  double speedup = 0;
  bool outputs_match = true;
};

ScenarioNumbers RunScenario(const Scenario& s, size_t num_batches,
                            int repeats, JsonReport& report) {
  ScenarioNumbers numbers;
  const std::string p = s.name + ".";

  StatusOr<ExecutionResult> oneshot = ExecutionResult{};
  double oneshot_ms = MillisOf(
      [&] { oneshot = ExecuteWorkflow(s.workflow, s.input); }, repeats);
  ETLOPT_CHECK_OK(oneshot.status());
  report.Add(p + "oneshot.millis", oneshot_ms, "ms");

  StreamOptions options;
  options.num_batches = static_cast<int64_t>(num_batches);
  StreamExecutor exec(options);
  StatusOr<ExecutionResult> streamed = ExecutionResult{};
  StreamStats stats;
  double stream_ms = MillisOf(
      [&] { streamed = exec.Run(s.workflow, s.input, &stats); }, repeats);
  ETLOPT_CHECK_OK(streamed.status());
  numbers.outputs_match = SameMultisetResult(*oneshot, *streamed);

  // Naive alternative: after each batch, recompute the whole prefix with
  // the one-shot engine (what a stream without incremental operators
  // would have to do to keep its targets current).
  StatusOr<ExecutionResult> naive = ExecutionResult{};
  double naive_ms = MillisOf(
      [&] {
        for (size_t b = 0; b < num_batches; ++b) {
          naive = ExecuteWorkflow(s.workflow,
                                  PrefixInput(s.input, b, num_batches));
          ETLOPT_CHECK_OK(naive.status());
        }
      },
      repeats);
  numbers.outputs_match =
      numbers.outputs_match && SameMultisetResult(*oneshot, *naive);

  numbers.speedup = naive_ms / stream_ms;
  const double rows_per_sec =
      static_cast<double>(s.total_rows) / (stream_ms / 1000.0);
  const double p99_ms = P99Millis(stats.batch_micros);

  report.Add(p + "stream.millis", stream_ms, "ms");
  report.Add(p + "naive_recompute.millis", naive_ms, "ms");
  report.Add(p + "incremental_speedup", numbers.speedup, "x");
  report.Add(p + "stream.rows_per_sec", rows_per_sec, "rows/s");
  report.Add(p + "stream.p99_batch_millis", p99_ms, "ms");
  report.Add(p + "source_rows", static_cast<double>(s.total_rows), "rows");
  report.Add(p + "batches", static_cast<double>(num_batches), "batches");

  std::printf(
      "  %-7s %7zu rows, %2zu batches: oneshot %8.1f ms | stream %8.1f ms "
      "(%9.0f rows/s, p99 batch %6.2f ms) | naive %8.1f ms | speedup "
      "%.2fx\n",
      s.name.c_str(), s.total_rows, num_batches, oneshot_ms, stream_ms,
      rows_per_sec, p99_ms, naive_ms, numbers.speedup);
  return numbers;
}

// The medium scenario streamed at each batch count in `sweep`: the
// stream's time over the one-shot run's, reported as
// medium.sweep.<n>.stream_to_oneshot. Whether each streamed result
// equals the one-shot run is reported next to it.
void RunBatchSweep(const Scenario& s, const std::vector<size_t>& sweep,
                   int repeats, JsonReport& report) {
  StatusOr<ExecutionResult> oneshot = ExecutionResult{};
  const double oneshot_ms = MillisOf(
      [&] { oneshot = ExecuteWorkflow(s.workflow, s.input); }, repeats);
  ETLOPT_CHECK_OK(oneshot.status());
  for (size_t n : sweep) {
    StreamOptions options;
    options.num_batches = static_cast<int64_t>(n);
    StreamExecutor exec(options);
    StatusOr<ExecutionResult> streamed = ExecutionResult{};
    const double stream_ms = MillisOf(
        [&] { streamed = exec.Run(s.workflow, s.input); }, repeats);
    ETLOPT_CHECK_OK(streamed.status());
    const bool match = SameMultisetResult(*oneshot, *streamed);
    const std::string p = s.name + ".sweep." + std::to_string(n) + ".";
    report.Add(p + "stream.millis", stream_ms, "ms");
    report.Add(p + "stream_to_oneshot", stream_ms / oneshot_ms, "x");
    report.Add(p + "outputs_match", match ? 1.0 : 0.0, "bool");
    std::printf(
        "  %-7s %4zu batches: stream %8.1f ms = %6.2fx one-shot %7.1f ms%s\n",
        s.name.c_str(), n, stream_ms, stream_ms / oneshot_ms, oneshot_ms,
        match ? "" : " (OUTPUT DIFFERS)");
  }
}

}  // namespace

int main() {
  const char* q = std::getenv("ETLOPT_BENCH_QUICK");
  const bool quick = q != nullptr && *q != '\0' && *q != '0';
  const size_t medium_rows = quick ? 400 : 4000;
  const size_t join_rows = quick ? 500 : 6000;
  const size_t num_batches = 16;
  const int repeats = quick ? 1 : 3;

  std::printf("stream throughput (quick=%d)\n", quick ? 1 : 0);
  JsonReport report("stream_throughput");

  Scenario medium = MakeMediumScenario(medium_rows);
  ScenarioNumbers medium_numbers =
      RunScenario(medium, num_batches, repeats, report);

  Scenario join = MakeJoinScenario(join_rows);
  ScenarioNumbers join_numbers =
      RunScenario(join, num_batches, repeats, report);

  const std::vector<size_t> sweep =
      quick ? std::vector<size_t>{16, 64}
            : std::vector<size_t>{16, 64, 256, 1024};
  RunBatchSweep(medium, sweep, repeats, report);

  report.Write();

  // Output equality is a hard failure in every mode.
  if (!medium_numbers.outputs_match || !join_numbers.outputs_match) {
    std::fprintf(stderr,
                 "FAIL: streamed output differs from the one-shot run\n");
    return 1;
  }
  // The >= 2x incremental gate applies to full runs of the medium
  // scenario (quick inputs are too small for a stable ratio).
  if (!quick && medium_numbers.speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: incremental speedup %.2fx < 2x on the medium "
                 "scenario\n",
                 medium_numbers.speedup);
    return 1;
  }
  return 0;
}
