// State-memory bench: workflow copy traffic and state footprint of the
// search algorithms' zero-copy neighbor generation.
//
// Runs HeuristicSearch, HS-Greedy, ExhaustiveSearch and simulated
// annealing on a generated scenario and reports, per algorithm: full
// Workflow copies, surgery undo applies, peak state bytes, wall clock.
// The copy-per-candidate baseline is the committed table kBaseline below:
// results must match it exactly (signature hash, cost bits, visited
// states, ES rewrite path), and copies are counted against its copies.
//
// Copy gates: HS and HS-Greedy must make >= 5x fewer copies than the
// baseline — their candidate fan-out is much wider than their survivor
// set, so evaluate-in-place pays off heavily. ES and SA have structural
// floors well under 5x and gate at >= 1.1x instead: ES enqueues nearly
// every candidate it evaluates (each enqueued state owns its workflow, a
// copy both configurations must pay), and SA accepts the large majority
// of its proposals (each accepted state is materialized; only rejections
// are free on the zero-copy path). Every algorithm must also roll back
// at least one in-place neighbor.
//
// ETLOPT_BENCH_CATEGORY=small|medium|large picks the scenario (default
// large, ~70 activities); ETLOPT_BENCH_QUICK=1 shrinks budgets.
// Emits BENCH_state_memory.json.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "optimizer/annealing.h"
#include "optimizer/search.h"
#include "suite_runner.h"
#include "workload/generator.h"

namespace {

using namespace etlopt;
using namespace etlopt::bench;

// The copy-per-candidate baseline (the removed disable_fast_paths search
// path), recorded at commit 662a9a0 on a 4-core Intel Xeon host. Every
// field is deterministic: equal inputs give equal results and equal copy
// counts on any host.
struct BaselineFigures {
  const char* category;
  bool quick;
  const char* algo;
  uint64_t signature_hash;
  uint64_t cost_bits;  // bit pattern of the best cost
  size_t visited_states;
  size_t workflow_copies;
  const char* es_path;  // ES rewrite path; "" for the other algorithms
};

constexpr BaselineFigures kBaseline[] = {
    {"small", true, "hs", 0x9a2df0cdec79a7c8ull, 0x41119dd462d0bcbaull,
     1452, 3497, ""},
    {"small", true, "hsg", 0xaefc9c33ac46045dull, 0x4111eeb2e69a6678ull,
     288, 305, ""},
    {"small", true, "es", 0x7ab54671811c1677ull, 0x411bb094b6376c38ull,
     1000, 3259, "SWA(3,4) SWA(3,5) SWA(3,6) SWA(9,10)"},
    {"small", true, "sa", 0x9dbe2b3e2e46ff9full, 0x41119dd462d0bcbaull,
     2817, 2819, ""},
    {"small", false, "hs", 0x9a2df0cdec79a7c8ull, 0x41119dd462d0bcbaull,
     1452, 3497, ""},
    {"small", false, "hsg", 0xaefc9c33ac46045dull, 0x4111eeb2e69a6678ull,
     288, 305, ""},
    {"small", false, "es", 0xd6da5420ef9aa98dull, 0x411aa8504553659cull,
     4000, 15982, "SWA(3,4) SWA(3,5) SWA(3,6) SWA(5,6) SWA(4,6) SWA(9,10)"},
    {"small", false, "sa", 0x9dbe2b3e2e46ff9full, 0x41119dd462d0bcbaull,
     2817, 2819, ""},
    {"medium", true, "hs", 0xbbfd7fc10f32726dull, 0x410dfd23f5a55c9full,
     5000, 8633, ""},
    {"medium", true, "hsg", 0x1b88e6e40dd4dbeaull, 0x410dee2ca1dcbd21ull,
     3708, 5349, ""},
    {"medium", true, "es", 0x3713213078728fc0ull, 0x41282ad9173ad046ull,
     1000, 1895, "SWA(3,4) SWA(3,5) SWA(13,14)"},
    {"medium", true, "sa", 0xe02459c73448a226ull, 0x410d1e57ef6b06c3ull,
     2573, 2591, ""},
    {"medium", false, "hs", 0xbbfd7fc10f32726dull, 0x410dfd23f5a55c9full,
     7852, 12782, ""},
    {"medium", false, "hsg", 0x1b88e6e40dd4dbeaull, 0x410dee2ca1dcbd21ull,
     3708, 5349, ""},
    {"medium", false, "es", 0x3713213078728fc0ull, 0x41282ad9173ad046ull,
     4000, 11349, "SWA(3,4) SWA(3,5) SWA(13,14)"},
    {"medium", false, "sa", 0xe02459c73448a226ull, 0x410d1e57ef6b06c3ull,
     2573, 2591, ""},
    {"large", true, "hs", 0x4d2c061384a2ee1dull, 0x411a260965d71358ull,
     5001, 11729, ""},
    {"large", true, "hsg", 0x69c8266bec5947c4ull, 0x411a45b8693db7fcull,
     5006, 10806, ""},
    {"large", true, "es", 0xbab83f3f50c08ceaull, 0x413da0c1f98081b7ull,
     1000, 1283, "SWA(3,4) SWA(14,15)"},
    {"large", true, "sa", 0x7044ce421e661dbfull, 0x411905da216e4a71ull,
     2772, 2788, ""},
    {"large", false, "hs", 0x1bf7b5a133d90de7ull, 0x411936866383458cull,
     14432, 25048, ""},
    {"large", false, "hsg", 0x80ec92035cfeb73full, 0x411a277dab627998ull,
     7829, 13639, ""},
    {"large", false, "es", 0x8de3181c6c3ab501ull, 0x413b59c977586339ull,
     4000, 7391, "SWA(3,4) SWA(14,15) SWA(14,16)"},
    {"large", false, "sa", 0x7044ce421e661dbfull, 0x411905da216e4a71ull,
     2772, 2788, ""},
};

const BaselineFigures* FindBaseline(const std::string& category, bool quick,
                                    const char* algo) {
  for (const BaselineFigures& b : kBaseline) {
    if (category == b.category && quick == b.quick &&
        std::strcmp(algo, b.algo) == 0) {
      return &b;
    }
  }
  return nullptr;
}

uint64_t CostBits(double cost) {
  uint64_t bits;
  std::memcpy(&bits, &cost, sizeof(bits));
  return bits;
}

std::string PathOf(const SearchResult& r) {
  std::string path;
  for (const auto& t : r.best_path) {
    if (!path.empty()) path += " ";
    path += t.description;
  }
  return path;
}

WorkloadCategory CategoryFromEnv() {
  const char* c = std::getenv("ETLOPT_BENCH_CATEGORY");
  if (c != nullptr) {
    if (std::strcmp(c, "small") == 0) return WorkloadCategory::kSmall;
    if (std::strcmp(c, "medium") == 0) return WorkloadCategory::kMedium;
  }
  return WorkloadCategory::kLarge;
}

struct RunOutcome {
  SearchResult result;
  double millis = 0;
};

RunOutcome Timed(const std::function<StatusOr<SearchResult>()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  auto r = fn();
  auto t1 = std::chrono::steady_clock::now();
  ETLOPT_CHECK_OK(r.status());
  RunOutcome out;
  out.result = std::move(r).value();
  out.millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

int Run() {
  const bool quick = []() {
    const char* q = std::getenv("ETLOPT_BENCH_QUICK");
    return q != nullptr && q[0] == '1';
  }();

  GeneratorOptions gen;
  gen.category = CategoryFromEnv();
  gen.seed = 7;
  auto g = GenerateWorkflow(gen);
  ETLOPT_CHECK_OK(g.status());
  LinearLogCostModel model;

  SearchOptions options;
  options.max_states = quick ? 5000 : 50000;
  options.max_millis = 120000;
  options.num_threads = 1;  // copy accounting, not parallel speedup
  SearchOptions es_options = options;
  es_options.max_states = quick ? 1000 : 4000;
  AnnealingOptions annealing;
  annealing.seed = 13;

  const std::string category(WorkloadCategoryToString(gen.category));
  std::printf("state memory: %s scenario, %zu activities\n",
              category.c_str(), g->activity_count);
  std::printf("  %-10s %-9s %12s %12s %14s %10s\n", "algo", "mode", "copies",
              "undos", "peak KiB", "ms");

  JsonReport report("state_memory");
  report.Add("activities", static_cast<double>(g->activity_count),
             "activities");

  struct Algo {
    const char* name;
    std::function<StatusOr<SearchResult>(const SearchOptions&)> run;
  };
  const Workflow& w = g->workflow;
  const Algo algos[] = {
      {"hs", [&](const SearchOptions& o) { return HeuristicSearch(w, model, o); }},
      {"hsg",
       [&](const SearchOptions& o) { return HeuristicSearchGreedy(w, model, o); }},
      {"es", [&](const SearchOptions& o) { return ExhaustiveSearch(w, model, o); }},
      {"sa",
       [&](const SearchOptions& o) {
         return SimulatedAnnealingSearch(w, model, o, annealing);
       }},
  };

  bool ok = true;
  for (const Algo& algo : algos) {
    const SearchOptions& opts =
        std::strcmp(algo.name, "es") == 0 ? es_options : options;
    const BaselineFigures* base = FindBaseline(category, quick, algo.name);
    ETLOPT_CHECK(base != nullptr);
    RunOutcome fast = Timed([&] { return algo.run(opts); });

    // The zero-copy path is an implementation detail: identical optimum,
    // signature and state accounting are part of the contract.
    const SearchResult& r = fast.result;
    if (r.best.signature_hash != base->signature_hash ||
        CostBits(r.best.cost) != base->cost_bits ||
        r.visited_states != base->visited_states ||
        PathOf(r) != base->es_path) {
      std::fprintf(stderr,
                   "FAIL: %s diverged from the baseline table (hash "
                   "%016" PRIx64 " vs %016" PRIx64 ", visited %zu vs %zu)\n",
                   algo.name, r.best.signature_hash, base->signature_hash,
                   r.visited_states, base->visited_states);
      ok = false;
      continue;
    }

    const SearchPerf& fp = r.perf;
    std::printf("  %-10s %-9s %12zu %12s %14s %10s\n", algo.name, "baseline",
                base->workflow_copies, "-", "-", "-");
    std::printf("  %-10s %-9s %12zu %12zu %14.1f %10.1f\n", algo.name,
                "zerocopy", fp.workflow_copies, fp.undo_applies,
                static_cast<double>(fp.peak_state_bytes) / 1024.0,
                fast.millis);
    const std::string p = std::string(algo.name) + ".";
    report.Add(p + "baseline.workflow_copies",
               static_cast<double>(base->workflow_copies), "copies");
    report.Add(p + "zerocopy.workflow_copies",
               static_cast<double>(fp.workflow_copies), "copies");
    report.Add(p + "zerocopy.undo_applies",
               static_cast<double>(fp.undo_applies), "undos");
    report.Add(p + "zerocopy.peak_state_bytes",
               static_cast<double>(fp.peak_state_bytes), "bytes");
    report.Add(p + "zerocopy.millis", fast.millis, "ms");
    const double reduction =
        fp.workflow_copies > 0
            ? static_cast<double>(base->workflow_copies) /
                  static_cast<double>(fp.workflow_copies)
            : static_cast<double>(base->workflow_copies);
    report.Add(p + "copy_reduction", reduction, "x");
    std::printf("  %-10s copy reduction %.1fx, undo applies %zu\n", algo.name,
                reduction, fp.undo_applies);
    const bool survivor_bound = std::strcmp(algo.name, "es") == 0 ||
                                std::strcmp(algo.name, "sa") == 0;
    const double floor = survivor_bound ? 1.1 : 5.0;
    if (reduction < floor) {
      std::fprintf(stderr, "FAIL: %s copy reduction %.2fx < %.1fx\n",
                   algo.name, reduction, floor);
      ok = false;
    }
    if (fp.undo_applies == 0) {
      std::fprintf(stderr, "FAIL: %s made no in-place undo applies\n",
                   algo.name);
      ok = false;
    }
  }

  report.Write();
  return ok ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
