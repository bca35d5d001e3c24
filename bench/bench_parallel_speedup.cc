// Parallel engine scaling: rows/sec of the one parallel engine
// (ExecuteVectorized) at 1/2/4/8 worker threads against the serial
// engine, on a large (~70-activity, §4.2) generated scenario with a
// scaled-up input. The headline check is >= 2x rows/sec at 4 threads vs.
// 1; every run also re-verifies that the parallel output is
// byte-identical to the materializing engine's.
//
// The legs run interleaved round-robin and each reports its median over
// the rounds (perfbench's rule), so host load drifting during the bench
// lands on every thread count alike. The speedup check hard-fails only
// where it is physically meaningful: on machines with >= 4 hardware
// threads (CI runners). On smaller boxes the numbers are still measured,
// printed and emitted, but informational. ETLOPT_BENCH_QUICK=1
// additionally shrinks the input for smoke runs (tiny inputs are
// dominated by dispatch, so the check relaxes too).
//
// Emits BENCH_parallel_speedup.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "engine/executor.h"
#include "engine/vectorized.h"
#include "suite_runner.h"
#include "workload/generator.h"

namespace {

using namespace etlopt;
using namespace etlopt::bench;

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

  const int rounds = quick ? 1 : 7;

  // The reference output for the identity check, computed untimed.
  StatusOr<ExecutionResult> reference = ExecuteWorkflow(g->workflow, input);
  ETLOPT_CHECK_OK(reference.status());

  // Leg 0 is the serial engine; leg k > 0 is the vectorized engine at
  // kThreads[k - 1] workers.
  const size_t kThreads[] = {1, 2, 4, 8};
  const size_t legs = 1 + std::size(kThreads);
  StatusOr<ExecutionResult> out = ExecutionResult{};
  bool identity_ok = true;
  std::vector<double> ms = InterleavedMedianMillis(
      legs, rounds,
      [&](size_t leg) {
        if (leg == 0) {
          out = ExecuteWorkflow(g->workflow, input);
          return;
        }
        VectorizedOptions options;
        options.num_threads = kThreads[leg - 1];
        out = ExecuteVectorized(g->workflow, input, options);
      },
      [&](size_t leg) {
        ETLOPT_CHECK_OK(out.status());
        if (out->target_data != reference->target_data ||
            out->rows_out != reference->rows_out) {
          std::fprintf(stderr,
                       "FAIL: %s(%zu) output differs from the reference "
                       "run\n",
                       leg == 0 ? "materializing" : "parallel",
                       leg == 0 ? size_t{1} : kThreads[leg - 1]);
          identity_ok = false;
        }
        out = ExecutionResult{};  // freed here, outside the timing
      });
  if (!identity_ok) return 1;

  JsonReport report("parallel_speedup");
  report.Add("activities", static_cast<double>(g->activity_count),
             "activities");
  report.Add("source_rows", static_cast<double>(total_rows), "rows");
  report.Add("rounds", static_cast<double>(rounds), "rounds");
  report.Add("materializing.rows_per_sec", 1000.0 * total_rows / ms[0],
             "rows/s");
  std::printf("  %-18s %8.1f ms  %12.0f rows/s  (median of %d rounds)\n",
              "materializing", ms[0], 1000.0 * total_rows / ms[0], rounds);

  const double t1_ms = ms[1];
  double t4_ms = 0;
  for (size_t leg = 1; leg < legs; ++leg) {
    const size_t threads = kThreads[leg - 1];
    if (threads == 4) t4_ms = ms[leg];
    char key[64];
    std::snprintf(key, sizeof(key), "parallel.t%zu.rows_per_sec", threads);
    report.Add(key, 1000.0 * total_rows / ms[leg], "rows/s");
    std::printf("  parallel %zu thread%s %7.1f ms  %12.0f rows/s  (%.2fx)\n",
                threads, threads == 1 ? " " : "s", ms[leg],
                1000.0 * total_rows / ms[leg], t1_ms / ms[leg]);
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
