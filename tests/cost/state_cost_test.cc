#include "cost/state_cost.h"

#include <gtest/gtest.h>

#include "activity/templates.h"
#include "common/macros.h"
#include "optimizer/transitions.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

class StateCostTest : public ::testing::Test {
 protected:
  LinearLogCostModel model_;
};

TEST_F(StateCostTest, RequiresFreshWorkflow) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  Workflow w = s->workflow;
  ASSERT_TRUE(w.SwapAdjacent(s->to_euro, s->a2e_date).ok());
  EXPECT_TRUE(StateCost(w, model_).status().IsFailedPrecondition());
}

TEST_F(StateCostTest, Fig1BreakdownIsConsistent) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto bd = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(bd.ok());
  // Total equals the sum of per-node costs.
  double sum = 0;
  for (const auto& [id, c] : bd->node_cost) sum += c;
  EXPECT_DOUBLE_EQ(bd->total, sum);
  // Source cardinalities flow from the recordset definitions.
  EXPECT_DOUBLE_EQ(bd->node_output_cardinality.at(s->parts1), 1000.0);
  EXPECT_DOUBLE_EQ(bd->node_output_cardinality.at(s->parts2), 3000.0);
  // NotNull keeps 90%.
  EXPECT_DOUBLE_EQ(bd->node_output_cardinality.at(s->not_null), 900.0);
  // Union sums its inputs.
  EXPECT_DOUBLE_EQ(bd->node_output_cardinality.at(s->union_node),
                   900.0 + 1200.0);
  // Filters cost their input size.
  EXPECT_DOUBLE_EQ(bd->node_cost.at(s->not_null), 1000.0);
  EXPECT_DOUBLE_EQ(bd->node_cost.at(s->threshold), 2100.0);
}

TEST_F(StateCostTest, SwapReducesCostWhenFilterMovesEarly) {
  // Swapping the aggregation before the date conversion lets the (cheap)
  // conversion run on fewer rows: cost must drop (paper's Fig. 2 swap).
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  double before = *StateCost(s->workflow, model_);
  Workflow swapped = s->workflow;
  ASSERT_TRUE(ApplySwap(swapped, s->a2e_date, s->aggregate).ok());
  double after = *StateCost(swapped, model_);
  EXPECT_LT(after, before);
  // The delta is exactly the date-conversion rows saved: 3000 -> 1200.
  EXPECT_DOUBLE_EQ(before - after, 1800.0);
}

TEST_F(StateCostTest, IncrementalMatchesFullAfterSwap) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto base = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(base.ok());
  Workflow swapped = s->workflow;
  ASSERT_TRUE(ApplySwap(swapped, s->a2e_date, s->aggregate).ok());
  auto full = ComputeCostBreakdown(swapped, model_);
  auto incr = IncrementalCostBreakdown(swapped, *base, model_);
  ASSERT_TRUE(full.ok() && incr.ok());
  EXPECT_DOUBLE_EQ(full->total, incr->total);
  EXPECT_EQ(full->node_cost, incr->node_cost);
  EXPECT_EQ(full->node_output_cardinality, incr->node_output_cardinality);
  EXPECT_EQ(full->node_input_cardinality, incr->node_input_cardinality);
}

TEST_F(StateCostTest, IncrementalMatchesFullAfterDistribute) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto base = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(base.ok());
  Workflow dist = s->workflow;
  ASSERT_TRUE(ApplyDistribute(dist, s->union_node, s->threshold).ok());
  auto full = ComputeCostBreakdown(dist, model_);
  auto incr = IncrementalCostBreakdown(dist, *base, model_);
  ASSERT_TRUE(full.ok() && incr.ok());
  EXPECT_DOUBLE_EQ(full->total, incr->total);
}

TEST_F(StateCostTest, IncrementalReusesUntouchedBranch) {
  // After swapping inside flow 2, flow 1's NotNull figures are reused
  // verbatim (same id, same providers, same input cardinality).
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto base = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(base.ok());
  Workflow swapped = s->workflow;
  ASSERT_TRUE(ApplySwap(swapped, s->a2e_date, s->aggregate).ok());
  CostReuseStats stats;
  auto incr = IncrementalCostBreakdown(swapped, *base, model_, &stats);
  ASSERT_TRUE(incr.ok());
  EXPECT_DOUBLE_EQ(incr->node_cost.at(s->not_null),
                   base->node_cost.at(s->not_null));
  // Flow 1 is untouched: at least NotNull comes from the cache, and only
  // the swapped pair plus its downstream dependents get recosted.
  EXPECT_GE(stats.reused_nodes, 1u);
  EXPECT_GE(stats.recosted_nodes, 2u);
}

TEST_F(StateCostTest, IncrementalExactAcrossTransitionChain) {
  // Bit-exact equality with the full recompute must survive a chain of
  // transitions whose dirty marks accumulate: swap, then distribute, each
  // delta-recosted against the breakdown of the state before it.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto bd = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(bd.ok());

  Workflow swapped = s->workflow;
  ASSERT_TRUE(ApplySwap(swapped, s->a2e_date, s->aggregate).ok());
  auto bd1 = IncrementalCostBreakdown(swapped, *bd, model_);
  ASSERT_TRUE(bd1.ok());
  auto full1 = ComputeCostBreakdown(swapped, model_);
  ASSERT_TRUE(full1.ok());
  EXPECT_TRUE(bd1->total == full1->total);  // exact, not approximate
  EXPECT_EQ(bd1->node_cost, full1->node_cost);

  // Derive the next state from the swapped one; its dirty set restarts
  // from the swapped workflow's accumulated marks.
  Workflow dist = swapped;
  dist.ClearDirtyNodes();
  ASSERT_TRUE(ApplyDistribute(dist, s->union_node, s->threshold).ok());
  auto bd2 = IncrementalCostBreakdown(dist, *bd1, model_);
  ASSERT_TRUE(bd2.ok());
  auto full2 = ComputeCostBreakdown(dist, model_);
  ASSERT_TRUE(full2.ok());
  EXPECT_TRUE(bd2->total == full2->total);
  EXPECT_EQ(bd2->node_cost, full2->node_cost);
  EXPECT_EQ(bd2->node_output_cardinality, full2->node_output_cardinality);
  EXPECT_EQ(bd2->node_input_cardinality, full2->node_input_cardinality);
}

TEST_F(StateCostTest, IncrementalWithoutDirtyMarksStillExact) {
  // Even when the caller never clears dirty marks (every node looks
  // touched), the delta path must degrade to a full recompute, not to a
  // wrong answer.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto base = ComputeCostBreakdown(s->workflow, model_);
  ASSERT_TRUE(base.ok());
  Workflow swapped = s->workflow;
  ASSERT_TRUE(ApplySwap(swapped, s->a2e_date, s->aggregate).ok());
  Workflow swapped_back = swapped;
  ASSERT_TRUE(ApplySwap(swapped_back, s->aggregate, s->a2e_date).ok());
  CostReuseStats stats;
  auto incr = IncrementalCostBreakdown(swapped_back, *base, model_, &stats);
  ASSERT_TRUE(incr.ok());
  auto full = ComputeCostBreakdown(swapped_back, model_);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(incr->node_cost, full->node_cost);
  EXPECT_DOUBLE_EQ(incr->total, full->total);
}

// Two 1e300-row sources joined estimate 1e600 rows: the breakdown fails
// with InvalidArgument naming the join instead of costing it as inf.
TEST_F(StateCostTest, NonFiniteEstimateIsInvalidArgument) {
  Schema left = Schema::MakeOrDie({{"K", DataType::kInt64},
                                   {"A", DataType::kDouble}});
  Schema right = Schema::MakeOrDie({{"K", DataType::kInt64},
                                    {"B", DataType::kDouble}});
  Schema joined = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"A", DataType::kDouble},
                                     {"B", DataType::kDouble}});
  Workflow w;
  NodeId l = w.AddRecordSet({"L", left, 1e300});
  NodeId r = w.AddRecordSet({"R", right, 1e300});
  NodeId j = *w.AddActivity(*MakeJoin("big_join", {"K"}, 1.0), {l, r});
  NodeId t = w.AddRecordSet({"T", joined, 0});
  ETLOPT_CHECK_OK(w.Connect(j, t));
  ETLOPT_CHECK_OK(w.Finalize());

  auto bd = ComputeCostBreakdown(w, model_);
  ASSERT_FALSE(bd.ok());
  EXPECT_TRUE(bd.status().IsInvalidArgument()) << bd.status().ToString();
  EXPECT_NE(bd.status().message().find("'big_join'"), std::string::npos)
      << bd.status().ToString();
}

}  // namespace
}  // namespace etlopt
