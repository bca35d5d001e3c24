// nightly_load: the paper's claim, measured. The 40-workflow suite
// (15 small, 15 medium, 10 large; the paper-table suite seeds) is
// optimized once by HS under a fixed state budget; the optimized plans
// then load sources generated from the workload seed, round-robin over
// workflow x {serial, parallel at 2 threads, vectorized at 1 thread}.
// Setup fetches the plans from an OptimizerServer on loopback, as a
// nightly job would, so net, service and the text and plan codecs work
// in setup only; checkpoints and the result cache do no work here.
//
// The suite's shapes are fixed rather than drawn from the workload seed:
// across seeds the shape mix alone moved throughput by ~8% (quartile
// spread of 5 seeds), a third of the benchmark's bound.

#include <cstdio>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "engine/executor.h"
#include "engine/parallel.h"
#include "engine/vectorized.h"
#include "harness.h"
#include "io/text_format.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/search.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace etlopt;

constexpr size_t kRowsPerSource = 5000;
constexpr int64_t kKeyDomain = 5000;
constexpr size_t kSearchStates = 300;

struct Plan {
  std::string category;
  Workflow initial;
  Workflow optimized;
  ExecutionInput input;
  size_t source_rows = 0;
  double initial_cost = 0;
  double best_cost = 0;
  size_t states = 0;
};

SearchOptions Budget() {
  SearchOptions options;
  options.max_states = kSearchStates;
  options.max_millis = 600000;  // never binds: the state budget does
  return options;
}

// One full setup: generation plus the setup-time searches. Returns false
// on an error Status (reported through `raw`).
bool Setup(uint64_t seed, Raw& raw, std::vector<Plan>& plans) {
  plans.clear();
  const struct {
    WorkloadCategory category;
    size_t count;
    uint64_t base_seed;
  } kSuite[] = {{WorkloadCategory::kSmall, 15, 1000},
                {WorkloadCategory::kMedium, 15, 2000},
                {WorkloadCategory::kLarge, 10, 3000}};
  LinearLogCostModel model;
  ServerOptions server_options;
  server_options.ephemeral_port = true;
  server_options.service.num_threads = 1;
  OptimizerServer server(model, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    raw.Fail("server start: " + started.ToString());
    return false;
  }
  StatusOr<OptimizerClient> client =
      OptimizerClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    raw.Fail("connect: " + client.status().ToString());
    return false;
  }
  InputGenOptions igen;
  igen.rows_per_source = kRowsPerSource;
  igen.key_domain = kKeyDomain;
  double gen_ms = 0, search_ms = 0;
  size_t states = 0;
  for (const auto& spec : kSuite) {
    Clock::time_point t0 = Clock::now();
    StatusOr<std::vector<GeneratedWorkflow>> suite = [&] {
      Span span("workload.gen");
      return GenerateSuite(spec.category, spec.count, spec.base_seed);
    }();
    gen_ms += MsSince(t0);
    if (!suite.ok()) {
      raw.Fail("GenerateSuite: " + suite.status().ToString());
      return false;
    }
    for (GeneratedWorkflow& g : *suite) {
      Plan plan;
      plan.category = std::string(WorkloadCategoryToString(spec.category));
      t0 = Clock::now();
      {
        Span span("workload.gen");
        plan.input =
            GenerateInputFor(g.workflow, Mix(seed, 1000 + plans.size()), igen);
      }
      gen_ms += MsSince(t0);
      plan.source_rows = SourceRows(plan.input);
      t0 = Clock::now();
      StatusOr<NetOptimizeResponse> response = [&] {
        Span span("optimizer.search");
        StatusOr<NetOptimizeRequest> request =
            MakeNetRequest(g.workflow, SearchAlgorithm::kHeuristic, Budget());
        if (!request.ok()) return StatusOr<NetOptimizeResponse>(request.status());
        return client->Optimize(*request);
      }();
      StatusOr<Workflow> optimized =
          response.ok() ? ParseWorkflowText(response->plan.optimized_text)
                        : StatusOr<Workflow>(response.status());
      search_ms += MsSince(t0);
      if (!optimized.ok()) {
        raw.Fail("optimize: " + optimized.status().ToString());
        return false;
      }
      plan.initial = std::move(g.workflow);
      plan.optimized = std::move(optimized).value();
      plan.initial_cost = response->plan.initial_cost;
      plan.best_cost = response->plan.best_cost;
      plan.states = response->plan.visited_states;
      states += plan.states;
      plans.push_back(std::move(plan));
    }
  }
  client->Close();
  (void)server.Stop();
  raw.Sample("workload.gen_ms", gen_ms);
  raw.Sample("optimizer.search_ms", search_ms);
  raw.Set("optimizer.states_visited", static_cast<double>(states));
  return true;
}

enum Engine { kSerial, kParallel, kVectorized, kInitialSerial };
const char* const kEngineName[] = {"serial", "parallel", "vectorized",
                                   "initial"};
const char* const kEngineSpan[] = {"engine.serial", "engine.parallel",
                                   "engine.vectorized", "engine.serial"};

StatusOr<ExecutionResult> Execute(Engine engine, const Plan& plan,
                                  VectorizedStats* vstats) {
  switch (engine) {
    case kSerial:
      return ExecuteWorkflow(plan.optimized, plan.input);
    case kParallel: {
      ParallelOptions options;
      options.num_threads = 2;
      return ExecuteParallel(plan.optimized, plan.input, options);
    }
    case kVectorized: {
      VectorizedOptions options;
      options.num_threads = 1;
      return ExecuteVectorized(plan.optimized, plan.input, options, vstats);
    }
    case kInitialSerial:
      return ExecuteWorkflow(plan.initial, plan.input);
  }
  return Status::Internal("unknown engine");
}

}  // namespace

int RunNightlyLoad(const Args& args, Raw& raw) {
  std::vector<Plan> plans;
  // Setup repeats rebuild the plans in place; the references, kept apart,
  // then also check that setup is deterministic.
  MeasuredLoop loop(args, raw, [&] { return Setup(args.seed, raw, plans); });
  if (!loop.SetUp()) return 1;

  // References: the serial engine on every optimized plan.
  std::vector<ExecutionResult> references;
  size_t rows_out = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    const Plan& plan = plans[i];
    StatusOr<ExecutionResult> ref = ExecuteWorkflow(plan.optimized, plan.input);
    if (!ref.ok()) {
      raw.Fail("reference run: " + ref.status().ToString());
      return 1;
    }
    references.push_back(std::move(ref).value());
    for (const auto& [node, n] : references.back().rows_out) rows_out += n;
    const std::string w = std::to_string(i);
    raw.Set("rows." + w, static_cast<double>(plan.source_rows));
    raw.Set("category." + w, plan.category == "small"    ? 0
                             : plan.category == "medium" ? 1
                                                         : 2);
    raw.Set("cost.initial." + w, plan.initial_cost);
    raw.Set("cost.best." + w, plan.best_cost);
  }
  raw.Set("engine.rows_out", static_cast<double>(rows_out));
  raw.Set("workflows", static_cast<double>(plans.size()));

  // The measured loop. Operation kinds interleave round-robin: every
  // workflow runs on every engine within one sweep, the engine order
  // rotating, so a slow host phase lands on all engines alike. Traced
  // runs alternate tracing on and off by sweep (so the overhead is
  // measured under the same host phases) and add the initial plan.
  HostSampler host(raw);
  Tracer& tracer = Tracer::Global();
  size_t sweep = 0;
  size_t vec_members = 0, fallback_members = 0;
  loop.Start();
  while (loop.Running()) {
    const bool traced = args.trace && sweep % 2 == 1;
    tracer.Enable(traced);
    const std::string suffix = traced ? "|traced" : "";
    const int kinds = args.trace ? 4 : 3;
    for (size_t i = 0; i < plans.size() && loop.Running(); ++i) {
      const Plan& plan = plans[i];
      const ExecutionResult& reference = references[i];
      for (int k = 0; k < kinds; ++k) {
        const Engine engine = static_cast<Engine>((k + i + sweep) % kinds);
        host.Maybe();
        VectorizedStats vstats;
        const uint64_t op = traced ? tracer.NewOp() : 0;
        raw.Attempt();
        const Clock::time_point t0 = Clock::now();
        StatusOr<ExecutionResult> out = [&] {
          Span span(kEngineSpan[engine], op);
          return Execute(engine, plan, &vstats);
        }();
        const double ms = MsSince(t0);
        Span check("bench.check", op);
        if (!out.ok()) {
          raw.Fail(std::string(kEngineName[engine]) + " w" +
                   std::to_string(i) + ": " + out.status().ToString());
          continue;
        }
        // The initial plan may order rows differently, so it is held to
        // target multisets. The engines run the optimized plan: they must
        // match the serial run's targets as multisets and its rows_out
        // exactly (byte identity, the common case, is checked first).
        const bool same =
            engine == kInitialSerial
                ? Sorted(*out) == Sorted(reference)
                : SameResult(*out, reference) ||
                      (out->rows_out == reference.rows_out &&
                       Sorted(*out) == Sorted(reference));
        if (!same) {
          raw.Fail(std::string(kEngineName[engine]) + " w" +
                   std::to_string(i) + ": output differs from reference");
          continue;
        }
        raw.Sample(std::string("exec_ms.") + kEngineName[engine] + "." +
                       std::to_string(i) + suffix,
                   ms);
        if (engine == kVectorized && sweep == 0) {
          vec_members += vstats.vectorized_members;
          fallback_members += vstats.fallback_members;
        }
      }
    }
    ++sweep;
  }
  tracer.Enable(false);
  if (!loop.ok()) return 1;
  raw.Set("sweeps", static_cast<double>(sweep));
  raw.Set("columnar.vectorized_members", static_cast<double>(vec_members));
  raw.Set("columnar.fallback_members", static_cast<double>(fallback_members));
  std::fprintf(stderr, "nightly_load: %zu workflows, %zu sweeps\n",
               plans.size(), sweep);
  return 0;
}

}  // namespace perfbench
