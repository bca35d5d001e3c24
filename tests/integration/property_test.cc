// Property tests for the paper's correctness theorems, swept over the
// generated workload population: every applicable transition (and every
// search result) must yield a workflow that is (a) equivalent under the
// §3.4 post-condition criterion and (b) empirically identical when
// executed on real data.

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/random.h"
#include "contract/contract.h"
#include "engine/executor.h"
#include "engine/vectorized.h"
#include "optimizer/search.h"
#include "optimizer/transitions.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

struct SweepCase {
  WorkloadCategory category;
  uint64_t seed;
};

std::string SweepCaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(WorkloadCategoryToString(info.param.category)) + "_" +
         std::to_string(info.param.seed);
}

class TransitionPropertyTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  GeneratedWorkflow Generate() {
    GeneratorOptions options;
    options.category = GetParam().category;
    options.seed = GetParam().seed;
    auto g = GenerateWorkflow(options);
    ETLOPT_CHECK_OK(g.status());
    return std::move(g).value();
  }

  LinearLogCostModel model_;
};

TEST_P(TransitionPropertyTest, AllSuccessorsAreEquivalent) {
  GeneratedWorkflow g = Generate();
  auto st = MakeState(g.workflow, model_);
  ASSERT_TRUE(st.ok());
  auto succ = EnumerateSuccessors(*st, model_);
  ASSERT_TRUE(succ.ok());
  EXPECT_FALSE(succ->empty());
  for (const auto& [state, rec] : *succ) {
    EXPECT_TRUE(state.workflow.EquivalentTo(g.workflow)) << rec.description;
    // Signatures must distinguish the successor from its parent.
    EXPECT_NE(state.signature, st->signature) << rec.description;
  }
}

TEST_P(TransitionPropertyTest, SampledSuccessorsProduceSameOutput) {
  GeneratedWorkflow g = Generate();
  auto st = MakeState(g.workflow, model_);
  ASSERT_TRUE(st.ok());
  auto succ = EnumerateSuccessors(*st, model_);
  ASSERT_TRUE(succ.ok());
  ExecutionInput input = GenerateInputFor(g.workflow, GetParam().seed * 7, 40);
  size_t checked = 0;
  for (const auto& [state, rec] : *succ) {
    if (checked >= 4) break;  // engine runs are the slow part
    auto same = ProduceSameOutput(g.workflow, state.workflow, input);
    ASSERT_TRUE(same.ok()) << rec.description << ": "
                           << same.status().ToString();
    EXPECT_TRUE(*same) << rec.description;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(TransitionPropertyTest, RandomTransitionWalkStaysEquivalent) {
  // Apply a random sequence of applicable transitions and re-verify
  // equivalence and executed outputs at the end of the walk.
  GeneratedWorkflow g = Generate();
  Rng rng(GetParam().seed * 1315423911ULL + 17);
  auto cur = MakeState(g.workflow, model_);
  ASSERT_TRUE(cur.ok());
  std::string trail;
  for (int step = 0; step < 6; ++step) {
    auto succ = EnumerateSuccessors(*cur, model_);
    ASSERT_TRUE(succ.ok());
    if (succ->empty()) break;
    auto& pick = (*succ)[rng.UniformIndex(succ->size())];
    trail += pick.second.description + " ";
    cur = std::move(pick.first);
  }
  EXPECT_TRUE(cur->workflow.EquivalentTo(g.workflow)) << trail;
  ExecutionInput input = GenerateInputFor(g.workflow, GetParam().seed * 3, 40);
  auto same = ProduceSameOutput(g.workflow, cur->workflow, input);
  ASSERT_TRUE(same.ok()) << trail << ": " << same.status().ToString();
  EXPECT_TRUE(*same) << trail;
}

TEST_P(TransitionPropertyTest, SearchResultsAreSoundAndImprove) {
  GeneratedWorkflow g = Generate();
  SearchOptions fast;
  fast.max_states = 20000;
  fast.max_millis = 15000;
  auto hs = HeuristicSearch(g.workflow, model_, fast);
  auto hsg = HeuristicSearchGreedy(g.workflow, model_, fast);
  ASSERT_TRUE(hs.ok() && hsg.ok());
  for (const SearchResult* r : {&*hs, &*hsg}) {
    EXPECT_LE(r->best.cost, r->initial_cost);
    EXPECT_TRUE(r->best.workflow.EquivalentTo(g.workflow));
  }
  // HS is seeded with the greedy sweep, so it never loses to HS-Greedy
  // on the same budget unless the budget cut it off mid-phase.
  if (hs->exhausted) {
    EXPECT_LE(hs->best.cost, hsg->best.cost + 1e-6);
  }
  // The optimized workflow still runs and matches the original.
  ExecutionInput input = GenerateInputFor(g.workflow, GetParam().seed, 40);
  auto same = ProduceSameOutput(g.workflow, hs->best.workflow, input);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same);
}

TEST_P(TransitionPropertyTest, SignatureIdentifiesStatesUniquely) {
  // Distinct successor structures get distinct signatures; equal
  // structures (DIS followed by FAC of the same activity) get equal ones.
  GeneratedWorkflow g = Generate();
  auto st = MakeState(g.workflow, model_);
  ASSERT_TRUE(st.ok());
  auto succ = EnumerateSuccessors(*st, model_);
  ASSERT_TRUE(succ.ok());
  std::map<std::string, std::string> seen;  // signature -> description
  for (const auto& [state, rec] : *succ) {
    auto [it, inserted] = seen.emplace(state.signature, rec.description);
    EXPECT_TRUE(inserted) << "signature collision between "
                          << rec.description << " and " << it->second;
  }
}

TEST_P(TransitionPropertyTest, AllEnginesAgreePreAndPostOptimization) {
  // N-version check on every seeded scenario: the vectorized engine, at
  // one worker and at several, loads the serial engine's bytes
  // (contract.h) on the initial state, on a transition successor, and on
  // the heuristically optimized state.
  GeneratedWorkflow g = Generate();
  ExecutionInput input = GenerateInputFor(g.workflow, GetParam().seed + 9, 50);
  std::vector<std::pair<const char*, Workflow>> states = {
      {"initial state", g.workflow}};

  auto st = MakeState(g.workflow, model_);
  ASSERT_TRUE(st.ok());
  auto succ = EnumerateSuccessors(*st, model_);
  ASSERT_TRUE(succ.ok());
  if (!succ->empty()) {
    states.emplace_back("transition successor", succ->front().first.workflow);
  }

  SearchOptions fast;
  fast.max_states = 8000;
  fast.max_millis = 10000;
  auto hsg = HeuristicSearchGreedy(g.workflow, model_, fast);
  ASSERT_TRUE(hsg.ok());
  states.emplace_back("optimized state", hsg->best.workflow);

  for (const auto& [what, w] : states) {
    auto serial = ExecuteWorkflow(w, input);
    ASSERT_TRUE(serial.ok()) << what << ": " << serial.status().ToString();
    for (size_t threads : {1u, 4u}) {
      VectorizedOptions voptions;
      voptions.num_threads = threads;
      voptions.batch_size = 64;
      EXPECT_TRUE(SameRun(*serial, ExecuteVectorized(w, input, voptions)))
          << what << " vectorized(" << threads << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransitionPropertyTest,
    ::testing::Values(SweepCase{WorkloadCategory::kSmall, 1},
                      SweepCase{WorkloadCategory::kSmall, 2},
                      SweepCase{WorkloadCategory::kSmall, 3},
                      SweepCase{WorkloadCategory::kSmall, 4},
                      SweepCase{WorkloadCategory::kMedium, 1},
                      SweepCase{WorkloadCategory::kMedium, 2},
                      SweepCase{WorkloadCategory::kMedium, 3},
                      SweepCase{WorkloadCategory::kLarge, 1},
                      SweepCase{WorkloadCategory::kLarge, 2}),
    SweepCaseName);

}  // namespace
}  // namespace etlopt
