// Micro-benchmarks of the optimizer's primitive operations (google-
// benchmark): workflow copy, schema regeneration (Refresh), the three
// cost-relevant transitions (clone, then apply), state signing/costing,
// and full vs
// semi-incremental costing (the paper's §4.1 optimization).

#include <benchmark/benchmark.h>

#include "suite_runner.h"
#include "common/macros.h"
#include "cost/state_cost.h"
#include "optimizer/search.h"
#include "optimizer/transitions.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace {

using namespace etlopt;

Workflow MediumWorkflow() {
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = 7;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK_OK(g.status());
  return g->workflow;
}

// A swappable adjacent unary pair in `w`.
std::pair<NodeId, NodeId> SwappablePair(const Workflow& w) {
  for (NodeId u : w.ActivityNodeIds()) {
    if (!w.chain(u).is_unary()) continue;
    auto cs = w.Consumers(u);
    if (cs.size() != 1 || !w.IsActivity(cs[0]) || !w.chain(cs[0]).is_unary())
      continue;
    Workflow probe = w;
    if (ApplySwap(probe, u, cs[0]).ok()) return {u, cs[0]};
  }
  ETLOPT_CHECK(false);
  return {kInvalidNode, kInvalidNode};
}

void BM_WorkflowCopy(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  for (auto _ : state) {
    Workflow copy = w;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_WorkflowCopy);

void BM_Refresh(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  for (auto _ : state) {
    ETLOPT_CHECK_OK(w.Refresh());
  }
}
BENCHMARK(BM_Refresh);

void BM_Signature(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Signature());
  }
}
BENCHMARK(BM_Signature);

// Hashed state identity (what the search sets actually key on): no string
// materialization. Compare with BM_Signature.
void BM_SignatureHash(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SignatureHash());
  }
}
BENCHMARK(BM_SignatureHash);

void BM_ApplySwap(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  auto [a, b] = SwappablePair(w);
  for (auto _ : state) {
    Workflow next = w;
    ETLOPT_CHECK_OK(ApplySwap(next, a, b));
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_ApplySwap);

void BM_ApplyDistribute(benchmark::State& state) {
  auto s = BuildFig1Scenario();
  ETLOPT_CHECK_OK(s.status());
  for (auto _ : state) {
    Workflow next = s->workflow;
    ETLOPT_CHECK_OK(ApplyDistribute(next, s->union_node, s->threshold));
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_ApplyDistribute);

void BM_ApplyFactorize(benchmark::State& state) {
  auto s = BuildFig4Scenario(1024);
  ETLOPT_CHECK_OK(s.status());
  for (auto _ : state) {
    Workflow next = s->workflow;
    ETLOPT_CHECK_OK(ApplyFactorize(next, s->union_node, s->sk1, s->sk2));
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_ApplyFactorize);

void BM_StateCostFull(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  LinearLogCostModel model;
  for (auto _ : state) {
    auto c = StateCost(w, model);
    ETLOPT_CHECK_OK(c.status());
    benchmark::DoNotOptimize(*c);
  }
}
BENCHMARK(BM_StateCostFull);

// Delta recosting (§4.1): re-cost a swapped state reusing the base
// breakdown, with the swap's dirty marks seeding the reuse decision.
// Compare with BM_StateCostFull.
void BM_StateCostIncremental(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  LinearLogCostModel model;
  auto base = ComputeCostBreakdown(w, model);
  ETLOPT_CHECK_OK(base.status());
  auto [a, b] = SwappablePair(w);
  Workflow swapped = w;
  ETLOPT_CHECK_OK(ApplySwap(swapped, a, b));
  for (auto _ : state) {
    auto c = IncrementalCostBreakdown(swapped, *base, model);
    ETLOPT_CHECK_OK(c.status());
    benchmark::DoNotOptimize(c->total);
  }
}
BENCHMARK(BM_StateCostIncremental);

void BM_MakeState(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  LinearLogCostModel model;
  for (auto _ : state) {
    auto st = MakeState(w, model);
    ETLOPT_CHECK_OK(st.status());
    benchmark::DoNotOptimize(st->cost);
  }
}
BENCHMARK(BM_MakeState);

void BM_EnumerateSuccessors(benchmark::State& state) {
  Workflow w = MediumWorkflow();
  LinearLogCostModel model;
  auto st = MakeState(w, model);
  ETLOPT_CHECK_OK(st.status());
  for (auto _ : state) {
    auto succ = EnumerateSuccessors(*st, model);
    ETLOPT_CHECK_OK(succ.status());
    benchmark::DoNotOptimize(succ->size());
  }
}
BENCHMARK(BM_EnumerateSuccessors);

// Mirrors every finished run into a BENCH_transition_throughput.json so
// CI tooling can diff the micros without scraping console output.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      double ns = run.iterations > 0
                      ? run.real_accumulated_time /
                            static_cast<double>(run.iterations) * 1e9
                      : 0.0;
      json_.Add(run.benchmark_name(), ns, "ns/iter");
    }
    ConsoleReporter::ReportRuns(reports);
  }

  bool WriteJson() const { return json_.Write(); }

 private:
  etlopt::bench::JsonReport json_{"transition_throughput"};
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonMirrorReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  return 0;
}
