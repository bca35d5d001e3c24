// Behavior of SearchOptions knobs: budgets, per-group caps, and the HS
// phase-ablation toggles.

#include <gtest/gtest.h>

#include "common/macros.h"
#include "optimizer/search.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

class SearchOptionsTest : public ::testing::Test {
 protected:
  GeneratedWorkflow Medium(uint64_t seed) {
    GeneratorOptions options;
    options.category = WorkloadCategory::kMedium;
    options.seed = seed;
    auto g = GenerateWorkflow(options);
    ETLOPT_CHECK_OK(g.status());
    return std::move(g).value();
  }

  LinearLogCostModel model_;
};

TEST_F(SearchOptionsTest, TimeBudgetRespected) {
  GeneratedWorkflow g = Medium(3);
  SearchOptions options;
  options.max_millis = 50;
  auto r = HeuristicSearch(g.workflow, model_, options);
  ASSERT_TRUE(r.ok());
  // Generous slack: the budget is checked between states.
  EXPECT_LT(r->elapsed_millis, 2000);
}

TEST_F(SearchOptionsTest, TightTimeBudgetTerminatesOnLargeScenario) {
  // The deadline check interval counts generated candidates, not just
  // visited states: a large scenario's sweeps can grind through hundreds
  // of mostly-rejected or deduplicated candidates without any `visited`
  // progress, and the wall clock must still be consulted throughout.
  // Regression guard for the budget's progress accounting — a tiny budget
  // on a ~70-activity workflow has to come back promptly in every
  // algorithm.
  GeneratorOptions gen;
  gen.category = WorkloadCategory::kLarge;
  gen.seed = 7;
  auto g = GenerateWorkflow(gen);
  ASSERT_TRUE(g.ok());
  SearchOptions options;
  options.max_millis = 40;
  auto hs = HeuristicSearch(g->workflow, model_, options);
  ASSERT_TRUE(hs.ok());
  EXPECT_LT(hs->elapsed_millis, 4000);
  auto es = ExhaustiveSearch(g->workflow, model_, options);
  ASSERT_TRUE(es.ok());
  EXPECT_LT(es->elapsed_millis, 4000);
}

TEST_F(SearchOptionsTest, StateBudgetRespected) {
  GeneratedWorkflow g = Medium(3);
  SearchOptions options;
  options.max_states = 100;
  auto r = HeuristicSearch(g.workflow, model_, options);
  ASSERT_TRUE(r.ok());
  // The budget is checked before each group sweep / phase step, so a
  // single in-flight sweep can overshoot slightly.
  EXPECT_LT(r->visited_states, 500u);
  EXPECT_FALSE(r->exhausted);
}

TEST_F(SearchOptionsTest, AllPhasesDisabledReturnsInitial) {
  GeneratedWorkflow g = Medium(4);
  SearchOptions options;
  options.enable_phase1_sweep = false;
  options.enable_factorize = false;
  options.enable_distribute = false;
  options.enable_phase4_resweep = false;
  auto r = HeuristicSearch(g.workflow, model_, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->best.cost, r->initial_cost);
}

TEST_F(SearchOptionsTest, EachPhaseContributesMonotonically) {
  // Full HS is never worse than swaps-only, which is never worse than
  // nothing.
  GeneratedWorkflow g = Medium(5);
  SearchOptions swaps_only;
  swaps_only.enable_factorize = false;
  swaps_only.enable_distribute = false;
  auto full = HeuristicSearch(g.workflow, model_);
  auto swaps = HeuristicSearch(g.workflow, model_, swaps_only);
  ASSERT_TRUE(full.ok() && swaps.ok());
  EXPECT_LE(full->best.cost, swaps->best.cost + 1e-9);
  EXPECT_LE(swaps->best.cost, swaps->initial_cost);
}

TEST_F(SearchOptionsTest, GroupCapOneStillSound) {
  GeneratedWorkflow g = Medium(6);
  SearchOptions tiny;
  tiny.max_states_per_group = 1;
  auto r = HeuristicSearch(g.workflow, model_, tiny);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->best.workflow.EquivalentTo(g.workflow));
  EXPECT_LE(r->best.cost, r->initial_cost);
}

TEST_F(SearchOptionsTest, Phase3CapBoundsVisitedStates) {
  GeneratedWorkflow g = Medium(7);
  SearchOptions small_cap;
  small_cap.max_phase3_states = 4;
  small_cap.max_phase4_states = 2;
  SearchOptions big_cap;
  big_cap.max_phase3_states = 512;
  big_cap.max_phase4_states = 64;
  auto small = HeuristicSearch(g.workflow, model_, small_cap);
  auto big = HeuristicSearch(g.workflow, model_, big_cap);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_LE(small->visited_states, big->visited_states);
  EXPECT_LE(big->best.cost, small->best.cost + 1e-9);
}

TEST_F(SearchOptionsTest, RejectsZeroMaxStates) {
  SearchOptions options;
  options.max_states = 0;
  EXPECT_TRUE(ValidateSearchOptions(options).IsInvalidArgument());
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(
      HeuristicSearch(s->workflow, model_, options).status().IsInvalidArgument());
  EXPECT_TRUE(
      ExhaustiveSearch(s->workflow, model_, options).status().IsInvalidArgument());
  EXPECT_TRUE(HeuristicSearchGreedy(s->workflow, model_, options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SearchOptionsTest, RejectsNonPositiveMaxMillis) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  for (int64_t millis : {int64_t{0}, int64_t{-5}}) {
    SearchOptions options;
    options.max_millis = millis;
    EXPECT_TRUE(ValidateSearchOptions(options).IsInvalidArgument());
    auto r = HeuristicSearch(s->workflow, model_, options);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST_F(SearchOptionsTest, RejectsZeroPhase4Cap) {
  SearchOptions options;
  options.max_phase4_states = 0;
  EXPECT_TRUE(ValidateSearchOptions(options).IsInvalidArgument());
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(HeuristicSearch(s->workflow, model_, options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SearchOptionsTest, ValidationErrorNamesTheKnob) {
  SearchOptions options;
  options.max_states = 0;
  Status st = ValidateSearchOptions(options);
  EXPECT_NE(st.message().find("max_states"), std::string::npos);
}

TEST_F(SearchOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(ValidateSearchOptions(SearchOptions{}).ok());
}

TEST_F(SearchOptionsTest, Fig1HeuristicStillOptimalWithDefaults) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto es = ExhaustiveSearch(s->workflow, model_);
  auto hs = HeuristicSearch(s->workflow, model_);
  ASSERT_TRUE(es.ok() && hs.ok());
  EXPECT_DOUBLE_EQ(es->best.cost, hs->best.cost);
}

}  // namespace
}  // namespace etlopt
