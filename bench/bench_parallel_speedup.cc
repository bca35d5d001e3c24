// Parallel engine scaling: rows/sec of ExecuteParallel at 1/2/4/8 worker
// threads against the serial engine, on a large (~70-activity, §4.2)
// generated scenario with a scaled-up input. The headline check is
// >= 2x rows/sec at 4 threads vs. 1; every run also re-verifies that the
// parallel output is byte-identical to the materializing engine's.
//
// The speedup check hard-fails only where it is physically meaningful:
// on machines with >= 4 hardware threads (CI runners). On smaller boxes
// the numbers are still measured, printed and emitted, but informational.
// ETLOPT_BENCH_QUICK=1 additionally shrinks the input for smoke runs
// (tiny inputs are dominated by dispatch, so the check relaxes too).
//
// Emits BENCH_parallel_speedup.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "engine/executor.h"
#include "engine/parallel.h"
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

int Run() {
  const bool quick = []() {
    const char* q = std::getenv("ETLOPT_BENCH_QUICK");
    return q != nullptr && q[0] == '1';
  }();

  GeneratorOptions gen;
  gen.category = WorkloadCategory::kLarge;
  gen.seed = 7;
  auto g = GenerateWorkflow(gen);
  ETLOPT_CHECK_OK(g.status());

  InputGenOptions igen;
  igen.rows_per_source = quick ? 2000 : 120000;
  igen.key_domain = quick ? 200 : 5000;
  ExecutionInput input = GenerateInputFor(g->workflow, 42, igen);
  size_t total_rows = 0;
  for (const auto& [name, rows] : input.source_data) total_rows += rows.size();

  std::printf("parallel speedup: %zu activities, %zu sources, %zu rows\n",
              g->activity_count, input.source_data.size(), total_rows);

  const int repeats = quick ? 1 : 3;

  // Serial baseline (and the reference output for the identity check).
  StatusOr<ExecutionResult> batch = ExecutionResult{};
  double batch_ms = MillisOf(
      [&] { batch = ExecuteWorkflow(g->workflow, input); }, repeats);
  ETLOPT_CHECK_OK(batch.status());

  JsonReport report("parallel_speedup");
  report.Add("activities", static_cast<double>(g->activity_count),
             "activities");
  report.Add("source_rows", static_cast<double>(total_rows), "rows");
  report.Add("materializing.rows_per_sec", 1000.0 * total_rows / batch_ms,
             "rows/s");
  std::printf("  %-18s %8.1f ms  %12.0f rows/s\n", "materializing", batch_ms,
              1000.0 * total_rows / batch_ms);

  double t1_ms = 0, t4_ms = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelOptions options;
    options.num_threads = threads;
    StatusOr<ExecutionResult> par = ExecutionResult{};
    double ms = MillisOf(
        [&] { par = ExecuteParallel(g->workflow, input, options); }, repeats);
    ETLOPT_CHECK_OK(par.status());
    if (par->target_data != batch->target_data ||
        par->rows_out != batch->rows_out) {
      std::fprintf(stderr,
                   "FAIL: parallel(%zu) output differs from the "
                   "materializing engine\n",
                   threads);
      return 1;
    }
    if (threads == 1) t1_ms = ms;
    if (threads == 4) t4_ms = ms;
    char key[64];
    std::snprintf(key, sizeof(key), "parallel.t%zu.rows_per_sec", threads);
    report.Add(key, 1000.0 * total_rows / ms, "rows/s");
    std::printf("  parallel %zu thread%s %7.1f ms  %12.0f rows/s  (%.2fx)\n",
                threads, threads == 1 ? " " : "s", ms,
                1000.0 * total_rows / ms, t1_ms / ms);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double speedup4 = t1_ms / t4_ms;
  report.Add("hardware_threads", static_cast<double>(hw), "threads");
  report.Add("speedup.t4_vs_t1", speedup4, "x");
  report.Write();

  std::printf("speedup at 4 threads vs 1: %.2fx (target >= 2x on >= 4 "
              "cores; this machine has %u)\n",
              speedup4, hw);
  if (!quick && hw >= 4 && speedup4 < 2.0) {
    std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < 2x\n", speedup4);
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
