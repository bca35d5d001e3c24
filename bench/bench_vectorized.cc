// Vectorized engine A/B: rows/sec of the columnar batch engine against
// the serial row engine on three hand-built medium scenarios that stress
// different kernel families:
//
//   selection_heavy    — a deep chain of comparison predicates plus
//                        NotNull/DomainCheck filters (the typed-loop
//                        fast path vs. per-row expression interpretation)
//   join_heavy         — PK-check feeding a hash join on a shared key
//   aggregation_heavy  — grouped aggregation with several accumulators
//
// Every measured run re-verifies that the vectorized output is
// byte-identical to the materializing engine's (target rows, order and
// rows_out) — a benchmark that drifted from the oracle would hard-fail,
// not silently report a speedup.
//
// The headline check is >= 5x rows/sec on selection_heavy (vectorized at
// hardware threads vs. the serial row engine), enforced on machines with
// >= 4 hardware threads; ETLOPT_BENCH_QUICK=1 shrinks the inputs for
// smoke runs and relaxes the check (tiny inputs are dispatch-bound).
// Within a scenario the row, vectorized@1 and vectorized@hardware legs
// run interleaved round-robin, and every figure is a leg's median over
// the rounds (perfbench's rule): a burst of host load then slows all
// three legs instead of deciding the ratio.
//
// Emits BENCH_vectorized.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>

#include "activity/templates.h"
#include "engine/executor.h"
#include "engine/vectorized.h"
#include "expr/expr.h"
#include "suite_runner.h"

namespace {

using namespace etlopt;
using namespace etlopt::bench;

struct Scenario {
  Workflow workflow;
  ExecutionInput input;
  size_t total_rows = 0;
};

Schema FactSchema() {
  return Schema::MakeOrDie({{"K", DataType::kInt64},
                            {"A", DataType::kInt64},
                            {"B", DataType::kDouble},
                            {"C", DataType::kDouble},
                            {"S", DataType::kString}});
}

std::vector<Record> FactRows(size_t n, uint64_t seed, int64_t key_domain) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Record> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Record({
        Value::Int(static_cast<int64_t>(rng() % key_domain)),
        i % 97 == 0 ? Value::Null()
                    : Value::Int(static_cast<int64_t>(rng() % 1000)),
        Value::Double(uni(rng)),
        Value::Double(uni(rng) * 100.0),
        Value::String("s" + std::to_string(rng() % 32)),
    }));
  }
  return rows;
}

// A deep filter chain: six comparison selections plus NotNull and
// DomainCheck, each keeping most rows so every stage stays hot.
Scenario SelectionHeavy(size_t rows) {
  Scenario s;
  Schema fact = FactSchema();
  Workflow& w = s.workflow;
  NodeId src = w.AddRecordSet({"F", fact, rows});
  NodeId cur = src;
  auto add = [&](StatusOr<Activity> a) {
    cur = *w.AddActivity(*a, {cur});
  };
  add(MakeSelection("s1",
                    Compare(CompareOp::kGe, Column("A"),
                            Literal(Value::Int(20))),
                    0.95));
  add(MakeSelection("s2",
                    Compare(CompareOp::kLt, Column("B"),
                            Literal(Value::Double(0.97))),
                    0.95));
  add(MakeNotNull("s3", "A", 0.95));
  add(MakeSelection("s4",
                    Or(Compare(CompareOp::kLe, Column("C"),
                               Literal(Value::Double(95.0))),
                       Compare(CompareOp::kEq, Column("A"),
                               Literal(Value::Int(7)))),
                    0.95));
  add(MakeDomainCheck("s5", "C", 0.5, 99.5, 0.95));
  add(MakeSelection("s6",
                    And(Compare(CompareOp::kGt, Column("B"),
                                Literal(Value::Double(0.02))),
                        Compare(CompareOp::kNe, Column("A"),
                                Literal(Value::Int(999)))),
                    0.95));
  add(MakeSelection("s7",
                    Compare(CompareOp::kLt, Column("A"), Column("C")),
                    0.7));
  NodeId tgt = w.AddRecordSet({"T", fact, 0});
  ETLOPT_CHECK_OK(w.Connect(cur, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  s.input.source_data["F"] = FactRows(rows, 11, 5000);
  s.total_rows = rows;
  return s;
}

// PK-check on the build side feeding a hash join, then a post-filter.
Scenario JoinHeavy(size_t rows) {
  Scenario s;
  Schema fact = FactSchema();
  Schema dim = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"D", DataType::kDouble}});
  Schema joined = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"A", DataType::kInt64},
                                     {"B", DataType::kDouble},
                                     {"C", DataType::kDouble},
                                     {"S", DataType::kString},
                                     {"D", DataType::kDouble}});
  Workflow& w = s.workflow;
  NodeId f = w.AddRecordSet({"F", fact, rows});
  NodeId d = w.AddRecordSet({"D", dim, rows / 4});
  NodeId pk = *w.AddActivity(*MakePrimaryKeyCheck("pk", {"K"}, 0.5), {d});
  NodeId j = *w.AddActivity(*MakeJoin("join", {"K"}, 1.0), {f, pk});
  NodeId sel = *w.AddActivity(
      *MakeSelection("post",
                     Compare(CompareOp::kGe, Column("D"),
                             Literal(Value::Double(0.05))),
                     0.9),
      {j});
  NodeId tgt = w.AddRecordSet({"T", joined, 0});
  ETLOPT_CHECK_OK(w.Connect(sel, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  s.input.source_data["F"] = FactRows(rows, 23, 2000);
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  auto& drows = s.input.source_data["D"];
  for (size_t i = 0; i < rows / 4; ++i) {
    drows.push_back(Record({Value::Int(static_cast<int64_t>(rng() % 2000)),
                            Value::Double(uni(rng))}));
  }
  s.total_rows = rows + rows / 4;
  return s;
}

// A pre-filter into a grouped aggregation with four accumulators.
Scenario AggregationHeavy(size_t rows) {
  Scenario s;
  Schema fact = FactSchema();
  Schema out = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"sum_b", DataType::kDouble},
                                  {"avg_c", DataType::kDouble},
                                  {"n", DataType::kInt64},
                                  {"max_a", DataType::kInt64}});
  Workflow& w = s.workflow;
  NodeId src = w.AddRecordSet({"F", fact, rows});
  NodeId sel = *w.AddActivity(
      *MakeSelection("pre",
                     Compare(CompareOp::kLt, Column("B"),
                             Literal(Value::Double(0.9))),
                     0.9),
      {src});
  NodeId agg = *w.AddActivity(
      *MakeAggregation("agg", {"K"},
                       {{AggFn::kSum, "B", "sum_b"},
                        {AggFn::kAvg, "C", "avg_c"},
                        {AggFn::kCount, "A", "n"},
                        {AggFn::kMax, "A", "max_a"}},
                       0.01),
      {sel});
  NodeId tgt = w.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(w.Connect(agg, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  s.input.source_data["F"] = FactRows(rows, 31, 4000);
  s.total_rows = rows;
  return s;
}

// Returns the vectorized-vs-serial speedup at hardware threads (ratio of
// the legs' medians), after reporting any output divergence.
double RunScenario(const char* name, const Scenario& s, int rounds,
                   JsonReport* report, bool* identity_ok) {
  // The reference output for the identity check, computed untimed.
  StatusOr<ExecutionResult> reference = ExecuteWorkflow(s.workflow, s.input);
  ETLOPT_CHECK_OK(reference.status());

  // Legs: 0 = serial row engine, 1 = vectorized@1, 2 = vectorized at
  // hardware threads (num_threads 0).
  size_t hw_threads = 0;
  StatusOr<ExecutionResult> out = ExecutionResult{};
  std::vector<double> ms = InterleavedMedianMillis(
      3, rounds,
      [&](size_t leg) {
        if (leg == 0) {
          out = ExecuteWorkflow(s.workflow, s.input);
          return;
        }
        VectorizedOptions options;
        options.num_threads = leg == 1 ? 1 : 0;
        VectorizedStats stats;
        out = ExecuteVectorized(s.workflow, s.input, options, &stats);
        if (leg == 2) hw_threads = stats.num_threads;
      },
      [&](size_t leg) {
        ETLOPT_CHECK_OK(out.status());
        if (out->target_data != reference->target_data ||
            out->rows_out != reference->rows_out) {
          std::fprintf(stderr,
                       "FAIL: %s: %s output differs from the row engine's "
                       "reference run\n",
                       name, leg == 0 ? "row serial" : "vectorized");
          *identity_ok = false;
        }
        out = ExecutionResult{};  // freed here, outside the timing
      });
  const double serial_ms = ms[0], t1_ms = ms[1], vec_hw_ms = ms[2];

  char key[96];
  std::snprintf(key, sizeof(key), "%s.vectorized.t1.rows_per_sec", name);
  report->Add(key, 1000.0 * s.total_rows / t1_ms, "rows/s");
  std::snprintf(key, sizeof(key), "%s.vectorized.t%zu.rows_per_sec", name,
                hw_threads);
  report->Add(key, 1000.0 * s.total_rows / vec_hw_ms, "rows/s");
  std::printf("  %-18s vectorized t1  %8.1f ms  %12.0f rows/s\n", name,
              t1_ms, 1000.0 * s.total_rows / t1_ms);
  std::printf("  %-18s vectorized t%-2zu %8.1f ms  %12.0f rows/s\n", name,
              hw_threads, vec_hw_ms, 1000.0 * s.total_rows / vec_hw_ms);

  std::snprintf(key, sizeof(key), "%s.row_serial.rows_per_sec", name);
  report->Add(key, 1000.0 * s.total_rows / serial_ms, "rows/s");
  std::snprintf(key, sizeof(key), "%s.speedup.vec_vs_row", name);
  double speedup = serial_ms / vec_hw_ms;
  report->Add(key, speedup, "x");
  std::printf("  %-18s row serial     %8.1f ms  %12.0f rows/s\n", name,
              serial_ms, 1000.0 * s.total_rows / serial_ms);
  std::printf("  %-18s speedup %.2fx (t1: %.2fx), medians of %d rounds\n",
              name, speedup, serial_ms / t1_ms, rounds);
  return speedup;
}

int Run() {
  const bool quick = []() {
    const char* q = std::getenv("ETLOPT_BENCH_QUICK");
    return q != nullptr && q[0] == '1';
  }();
  const size_t rows = quick ? 4000 : 400000;
  const int rounds = quick ? 1 : 7;

  std::printf("vectorized A/B: %zu rows per scenario\n", rows);
  JsonReport report("vectorized");
  report.Add("rows_per_scenario", static_cast<double>(rows), "rows");

  bool identity_ok = true;
  double sel_speedup = RunScenario("selection_heavy", SelectionHeavy(rows),
                                   rounds, &report, &identity_ok);
  RunScenario("join_heavy", JoinHeavy(rows), rounds, &report, &identity_ok);
  RunScenario("aggregation_heavy", AggregationHeavy(rows), rounds, &report,
              &identity_ok);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  report.Add("hardware_threads", static_cast<double>(hw), "threads");
  report.Write();

  if (!identity_ok) return 1;
  std::printf("selection_heavy speedup: %.2fx (target >= 5x on >= 4 cores; "
              "this machine has %u)\n",
              sel_speedup, hw);
  if (!quick && hw >= 4 && sel_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: selection_heavy speedup %.2fx < 5x\n",
                 sel_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
