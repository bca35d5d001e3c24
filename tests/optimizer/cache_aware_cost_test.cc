// Cache-aware optimizer costing: a CacheCostHint discounts subgraphs a
// shared result cache already holds, so search prefers plans that keep
// materialized prefixes intact — and a null / never-hit hint reproduces
// plain costing bit for bit.

#include <gtest/gtest.h>

#include <set>

#include "common/macros.h"
#include "graph/subgraph_signature.h"
#include "optimizer/search.h"
#include "optimizer/state_eval.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

class CacheAwareCostTest : public ::testing::Test {
 protected:
  LinearLogCostModel model_;
};

Workflow MediumWorkflow(uint64_t seed) {
  GeneratorOptions options;
  options.category = WorkloadCategory::kMedium;
  options.seed = seed;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK(g.ok());
  return std::move(g->workflow);
}

Workflow SmallWorkflow(uint64_t seed) {
  GeneratorOptions options;
  options.category = WorkloadCategory::kSmall;
  options.seed = seed;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK(g.ok());
  return std::move(g->workflow);
}

TEST_F(CacheAwareCostTest, NeverHitHintCostsExactlyLikeNoHint) {
  Workflow w = MediumWorkflow(3);
  StateEvaluator plain(model_);
  CacheCostHint hint;
  hint.is_materialized = [](uint64_t) { return false; };
  StateEvaluator hinted(model_, &hint);
  auto a = plain.Eval(w);
  auto b = hinted.Eval(w);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(a->signature_hash, b->signature_hash);
}

TEST_F(CacheAwareCostTest, AlwaysHitHintChargesOnlyTheResidual) {
  Workflow w = MediumWorkflow(3);
  StateEvaluator plain(model_);
  auto base = plain.Eval(w);
  ASSERT_TRUE(base.ok());

  CacheCostHint hint;
  hint.is_materialized = [](uint64_t) { return true; };
  hint.residual = 0.1;
  StateEvaluator hinted(model_, &hint);
  auto discounted = hinted.Eval(w);
  ASSERT_TRUE(discounted.ok());
  // Every activity node sits in the cone of the most-downstream
  // materialized node, so the whole plan costs only its residual.
  double avoidable = 0.0;
  for (const auto& [id, c] : base->breakdown->node_cost) avoidable += c;
  EXPECT_DOUBLE_EQ(discounted->cost,
                   base->cost - avoidable * (1.0 - hint.residual));
  EXPECT_LT(discounted->cost, base->cost);
  // The exact ledger is NOT discounted — delta recosting depends on it.
  EXPECT_EQ(discounted->breakdown->total, base->breakdown->total);
}

TEST_F(CacheAwareCostTest, DeltaRecostAgreesWithFullRecostUnderHint) {
  Workflow w = MediumWorkflow(5);
  // Materialize one concrete mid-plan subgraph of the initial workflow.
  std::vector<uint64_t> sigs =
      AllSubgraphResultSignatures(w, SubgraphSignatureInputs{});
  std::set<uint64_t> materialized;
  for (NodeId id : w.ActivityNodeIds()) {
    if (w.Providers(id).size() > 1) materialized.insert(sigs[id]);
  }
  ASSERT_FALSE(materialized.empty());
  CacheCostHint hint;
  hint.is_materialized = [&materialized](uint64_t s) {
    return materialized.count(s) != 0;
  };
  StateEvaluator hinted(model_, &hint);
  auto base = hinted.Eval(w);
  ASSERT_TRUE(base.ok());
  EXPECT_LT(base->cost, base->breakdown->total);

  // Every successor costed by delta against the base must match a
  // from-scratch hinted eval bit for bit.
  StateEvaluator plain(model_);
  auto plain_base = plain.Eval(w);
  ASSERT_TRUE(plain_base.ok());
  auto succ = EnumerateSuccessors(*plain_base, model_);
  ASSERT_TRUE(succ.ok());
  ASSERT_FALSE(succ->empty());
  for (const auto& [state, rec] : *succ) {
    auto via_delta = hinted.EvalFrom(state.workflow, *base);
    auto from_scratch = hinted.Eval(state.workflow);
    ASSERT_TRUE(via_delta.ok() && from_scratch.ok()) << rec.description;
    EXPECT_EQ(via_delta->cost, from_scratch->cost) << rec.description;
  }
}

// Activity nodes of `w` whose subgraph is still one of the materialized
// ones — the part of a rewritten plan the cache can still serve.
size_t KeptMaterialized(Workflow w, const std::set<uint64_t>& materialized) {
  if (!w.fresh()) ETLOPT_CHECK_OK(w.Refresh());
  std::vector<uint64_t> sigs =
      AllSubgraphResultSignatures(w, SubgraphSignatureInputs{});
  size_t kept = 0;
  for (NodeId id : w.ActivityNodeIds()) {
    if (materialized.count(sigs[id]) != 0) ++kept;
  }
  return kept;
}

// The integration property the ISSUE names: with the whole initial plan
// materialized, rewriting inside a covered cone forfeits its discount —
// so hinted search preserves (strictly more of) the shared prefix that
// unhinted search happily rewrites for exact-cost gains, and the
// cache-served plan it returns is effectively cheaper than the best
// rewritten plan.
TEST_F(CacheAwareCostTest, SearchKeepsMaterializedPrefixIntact) {
  Workflow w = SmallWorkflow(2);
  std::vector<uint64_t> sigs =
      AllSubgraphResultSignatures(w, SubgraphSignatureInputs{});
  std::set<uint64_t> materialized;
  for (NodeId id : w.ActivityNodeIds()) materialized.insert(sigs[id]);
  CacheCostHint hint;
  hint.is_materialized = [&materialized](uint64_t s) {
    return materialized.count(s) != 0;
  };
  hint.residual = 0.1;

  SearchOptions plain_options;
  auto plain = HeuristicSearch(w, model_, plain_options);
  ASSERT_TRUE(plain.ok());
  EXPECT_LT(plain->best.cost, plain->initial_cost)
      << "unhinted HS should find improvements on a generated plan";

  SearchOptions hinted_options;
  hinted_options.cache_hint = &hint;
  auto hinted = HeuristicSearch(w, model_, hinted_options);
  ASSERT_TRUE(hinted.ok());
  EXPECT_LE(hinted->best.cost, hinted->initial_cost);
  EXPECT_LT(hinted->best.cost, plain->best.cost)
      << "serving from the cache beats the best rewritten plan";

  size_t total = w.ActivityNodeIds().size();
  size_t hinted_kept = KeptMaterialized(hinted->best.workflow, materialized);
  size_t plain_kept = KeptMaterialized(plain->best.workflow, materialized);
  EXPECT_GT(hinted_kept, plain_kept)
      << "the hint must bias search towards keeping materialized cones";
  // The hinted rewrite touches at most the uncovered tail of the plan.
  EXPECT_GT(hinted_kept, total / 2) << total;
}

TEST_F(CacheAwareCostTest, ResultFingerprintSplitsOnHint) {
  SearchOptions a;
  std::string unhinted = ResultFingerprint(a);
  CacheCostHint hint;
  hint.snapshot_id = 42;
  a.cache_hint = &hint;
  std::string hinted = ResultFingerprint(a);
  EXPECT_NE(unhinted, hinted);
  hint.snapshot_id = 43;
  EXPECT_NE(ResultFingerprint(a), hinted);
  a.cache_hint = nullptr;
  EXPECT_EQ(ResultFingerprint(a), unhinted);
}

}  // namespace
}  // namespace etlopt
