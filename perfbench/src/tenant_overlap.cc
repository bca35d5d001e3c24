// tenant_overlap: cross-workflow result sharing. K = 4 tenants' medium
// workflows (backbone_overlap 0.5) arrive one after another on the
// serial engine through one fresh SharedResultCache per round, with
// kAuto cut points, so the hit pattern is the same every round. The only
// workload where the shared result cache and the engine's cache hooks do
// work; nightly_load runs the same engine with the cache off.
//
// Tenant shapes are fixed (generator seeds below); the workload seed
// drives the shared source data.

#include <cstdio>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "graph/subgraph_signature.h"
#include "harness.h"
#include "service/shared_result_cache.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace etlopt;

constexpr size_t kTenants = 4;
constexpr uint64_t kTenantShapeSeed = 7000;
constexpr double kOverlap = 0.5;
constexpr size_t kRowsPerSource = 5000;
constexpr int64_t kKeyDomain = 5000;

struct Tenant {
  Workflow workflow;
  ExecutionInput input;
  size_t source_rows = 0;
  ExecutionResult uncached;
  std::map<std::string, uint64_t> source_fp;
  std::map<std::string, uint64_t> lookup_fp;
};

uint64_t RowsHash(const std::vector<Record>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const Record& r : rows) h = (h ^ r.Hash()) * 1099511628211ull;
  return h;
}

}  // namespace

int RunTenantOverlap(const Args& args, Raw& raw) {
  std::vector<Tenant> tenants(kTenants);
  // Setup repeats regenerate the workflows and inputs in place,
  // identically; the references and fingerprints are left alone.
  MeasuredLoop loop(args, raw, [&] {
    const Clock::time_point t0 = Clock::now();
    Span span("workload.gen");
    for (size_t t = 0; t < kTenants; ++t) {
      GeneratorOptions gen;
      gen.category = WorkloadCategory::kMedium;
      gen.seed = kTenantShapeSeed + t;
      gen.backbone_overlap = kOverlap;
      StatusOr<GeneratedWorkflow> g = GenerateWorkflow(gen);
      if (!g.ok()) {
        raw.Fail("GenerateWorkflow: " + g.status().ToString());
        return false;
      }
      tenants[t].workflow = std::move(g->workflow);
      // One shared input seed: overlapping flows read identical source
      // data across tenants, the premise of sharing.
      InputGenOptions igen;
      igen.rows_per_source = kRowsPerSource;
      igen.key_domain = kKeyDomain;
      tenants[t].input =
          GenerateInputFor(tenants[t].workflow, Mix(args.seed, 1), igen);
      tenants[t].source_rows = SourceRows(tenants[t].input);
    }
    raw.Sample("workload.gen_ms", MsSince(t0));
    return true;
  });
  if (!loop.SetUp()) return 1;

  // References: every tenant's uncached serial run.
  size_t rows = 0;
  for (Tenant& t : tenants) {
    StatusOr<ExecutionResult> ref = ExecuteWorkflow(t.workflow, t.input);
    if (!ref.ok()) {
      raw.Fail("reference run: " + ref.status().ToString());
      return 1;
    }
    t.uncached = std::move(ref).value();
    rows += t.source_rows;
    for (const auto& [name, data] : t.input.source_data) {
      t.source_fp[name] = RowsHash(data);
    }
    for (const auto& [name, lookup] : t.input.context.lookups) {
      t.lookup_fp[name] = std::hash<std::string>{}(name) ^ lookup.size();
    }
  }
  raw.Set("rows_per_round", static_cast<double>(rows));

  HostSampler host(raw);
  Tracer& tracer = Tracer::Global();
  size_t round = 0;
  loop.Start();
  while (loop.Running()) {
    const bool traced = args.trace && round % 2 == 1;
    tracer.Enable(traced);
    host.Maybe();
    const uint64_t op = traced ? tracer.NewOp() : 0;
    Span::SetThreadOp(op);
    SharedResultCache cache;
    CacheOptions options;
    options.cache = &cache;
    options.cut_points = CutPointPolicy::kAuto;
    size_t computed = 0, produced = 0;
    bool ok = true;
    double wall_ms = 0;
    for (const Tenant& t : tenants) {
      raw.Attempt();
      const Clock::time_point t0 = Clock::now();
      StatusOr<ExecutionResult> out = [&] {
        Span span("engine.shared_cache_exec");
        return ExecuteWorkflow(t.workflow, t.input, options);
      }();
      wall_ms += MsSince(t0);
      Span check("bench.check");
      if (!out.ok() || !SameResult(*out, t.uncached)) {
        raw.Fail("tenant run: error or output differs from uncached run");
        ok = false;
        continue;
      }
      computed += out->cache.rows_computed;
      for (const auto& [node, n] : out->rows_out) produced += n;
    }
    if (ok) {
      raw.Sample(std::string("round_ms") + (traced ? "|traced" : ""),
                 wall_ms);
      const ResultCacheStats stats = cache.Stats();
      raw.Set("engine.rows_computed", static_cast<double>(computed));
      raw.Set("service.result_cache.hit_ratio", stats.hit_rate());
      raw.Set("service.result_cache.bytes", static_cast<double>(stats.bytes));
      raw.Set("service.result_cache.work_ratio",
              produced == 0 ? 0.0
                            : static_cast<double>(computed) /
                                  static_cast<double>(produced));
    }
    ++round;
  }
  tracer.Enable(false);
  if (!loop.ok()) return 1;

  // Signature probe: the content-addressed subgraph signatures every
  // cached run computes first, over fixed input fingerprints.
  if (args.trace) {
    tracer.Enable(true);
    for (int i = 0; i < 20; ++i) {
      for (const Tenant& t : tenants) {
        Span::SetThreadOp(tracer.NewOp());
        SubgraphSignatureInputs in;
        in.source_fingerprint = [&t](const std::string& name) {
          auto it = t.source_fp.find(name);
          return it == t.source_fp.end() ? 0 : it->second;
        };
        in.lookup_fingerprint = [&t](const std::string& name) {
          auto it = t.lookup_fp.find(name);
          return it == t.lookup_fp.end() ? 0 : it->second;
        };
        Span span("graph.subgraph_sig");
        (void)AllSubgraphResultSignatures(t.workflow, in);
      }
    }
    tracer.Enable(false);
  }
  std::fprintf(stderr, "tenant_overlap: %zu tenants, %zu rounds\n", kTenants,
               round);
  return 0;
}

}  // namespace perfbench
