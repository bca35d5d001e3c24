// Determinism of the parallel frontier expansion: every algorithm must
// return byte-identical results (best signature, best cost, visited-state
// accounting) at any thread count — parallelism is a pure implementation
// detail of the same search. The reference is the serial run, whose
// results search_golden_test pins bit for bit.
//
// The state budget is the binding constraint in every run (the time
// budget stays generous): a wall-clock cutoff would make any search —
// serial or parallel — timing-dependent.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "optimizer/annealing.h"
#include "optimizer/search.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

struct ParallelCase {
  WorkloadCategory category;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<ParallelCase>& info) {
  return std::string(WorkloadCategoryToString(info.param.category)) + "_seed" +
         std::to_string(info.param.seed);
}

class SearchParallelTest : public ::testing::TestWithParam<ParallelCase> {
 protected:
  Workflow Generate() {
    GeneratorOptions options;
    options.category = GetParam().category;
    options.seed = GetParam().seed;
    auto g = GenerateWorkflow(options);
    ETLOPT_CHECK_OK(g.status());
    return g->workflow;
  }

  static SearchOptions Capped() {
    SearchOptions o;
    o.max_states = 1500;
    o.max_millis = 60000;
    return o;
  }

  static void ExpectIdentical(const SearchResult& ref, const SearchResult& r,
                              const std::string& label) {
    EXPECT_EQ(ref.best.signature, r.best.signature) << label;
    EXPECT_EQ(ref.best.cost, r.best.cost) << label;  // exact, not approximate
    EXPECT_EQ(ref.visited_states, r.visited_states) << label;
    EXPECT_EQ(ref.initial_cost, r.initial_cost) << label;
  }

  // Runs `search` serially (the reference), then at 2 and 8 threads, and
  // requires identical results everywhere.
  template <typename SearchFn>
  void CheckAllConfigs(const Workflow& w, SearchFn search,
                       const char* algo) {
    SearchOptions serial = Capped();
    serial.num_threads = 1;
    auto ref = search(w, serial);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref->perf.threads, 1u);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      SearchOptions fast = Capped();
      fast.num_threads = threads;
      auto r = search(w, fast);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectIdentical(*ref, *r,
                      std::string(algo) + " threads=" +
                          std::to_string(threads));
      EXPECT_EQ(r->perf.threads, threads);
    }
  }

  LinearLogCostModel model_;
};

TEST_P(SearchParallelTest, HeuristicSearchAgreesAcrossThreadCounts) {
  Workflow w = Generate();
  CheckAllConfigs(
      w,
      [&](const Workflow& wf, const SearchOptions& o) {
        return HeuristicSearch(wf, model_, o);
      },
      "hs");
}

TEST_P(SearchParallelTest, GreedyAgreesAcrossThreadCounts) {
  Workflow w = Generate();
  CheckAllConfigs(
      w,
      [&](const Workflow& wf, const SearchOptions& o) {
        return HeuristicSearchGreedy(wf, model_, o);
      },
      "hsg");
}

TEST_P(SearchParallelTest, ExhaustiveAgreesAcrossThreadCounts) {
  // ES frontiers are the widest, so this is the strongest exercise of the
  // slotted merge; the budget keeps it tractable on the bigger scenarios.
  Workflow w = Generate();
  SearchOptions serial = Capped();
  serial.max_states = 600;
  serial.num_threads = 1;
  auto ref = ExhaustiveSearch(w, model_, serial);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SearchOptions fast = Capped();
    fast.max_states = 600;
    fast.num_threads = threads;
    auto r = ExhaustiveSearch(w, model_, fast);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectIdentical(*ref, *r, "es threads=" + std::to_string(threads));
    EXPECT_EQ(ref->exhausted, r->exhausted);
    // The rewrite path is part of the result contract too.
    ASSERT_EQ(ref->best_path.size(), r->best_path.size());
    for (size_t i = 0; i < ref->best_path.size(); ++i) {
      EXPECT_EQ(ref->best_path[i].description, r->best_path[i].description);
    }
  }
}

TEST_P(SearchParallelTest, PostAnnealingStateAgreesAcrossThreadCounts) {
  // Start the agreement check from an annealing optimum instead of the
  // generator's initial state: annealed workflows carry merged/split and
  // redistributed structure the generator never emits.
  Workflow w = Generate();
  SearchOptions sa_options;
  sa_options.max_states = 400;
  sa_options.max_millis = 60000;
  AnnealingOptions annealing;
  annealing.seed = 11;
  auto sa = SimulatedAnnealingSearch(w, model_, sa_options, annealing);
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  CheckAllConfigs(
      sa->best.workflow,
      [&](const Workflow& wf, const SearchOptions& o) {
        return HeuristicSearch(wf, model_, o);
      },
      "post-annealing hs");
}

TEST_P(SearchParallelTest, AnnealingDeterministicWithFastPaths) {
  // SA is sequential (no frontier to fan out), but it delta-recosts every
  // proposal on a scratch workflow it commits or rolls back; equal seeds
  // must give equal trajectories (search_golden_test pins their results).
  Workflow w = Generate();
  SearchOptions base;
  base.max_states = 400;
  base.max_millis = 60000;
  AnnealingOptions annealing;
  annealing.seed = 23;
  auto ref = SimulatedAnnealingSearch(w, model_, base, annealing);
  auto again = SimulatedAnnealingSearch(w, model_, base, annealing);
  ASSERT_TRUE(ref.ok() && again.ok());
  ExpectIdentical(*ref, *again, "sa rerun");
  EXPECT_GT(again->perf.delta_recosts, 0u);
  EXPECT_GT(again->perf.undo_applies, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SearchParallelTest,
    ::testing::Values(ParallelCase{WorkloadCategory::kSmall, 3},
                      ParallelCase{WorkloadCategory::kMedium, 5},
                      ParallelCase{WorkloadCategory::kLarge, 7}),
    CaseName);

}  // namespace
}  // namespace etlopt
