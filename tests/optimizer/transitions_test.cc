// Tests for the paper's transitions, including every legality example the
// paper discusses (Figs. 1, 2, 5, 6) and empirical validation of
// Theorems 1-2 via the execution engine.

#include "optimizer/transitions.h"

#include <gtest/gtest.h>

#include "activity/templates.h"
#include "common/macros.h"
#include "engine/executor.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

// Clone, then apply: the copying form of each transition, so a test can
// compare the rewritten workflow against the untouched original.
template <typename Transition>
StatusOr<Workflow> CloneApply(const Workflow& w, Transition transition) {
  Workflow next = w;
  ETLOPT_RETURN_NOT_OK(transition(next));
  return next;
}

StatusOr<Workflow> CopySwap(const Workflow& w, NodeId a1, NodeId a2) {
  return CloneApply(w, [&](Workflow& n) { return ApplySwap(n, a1, a2); });
}

StatusOr<Workflow> CopyFactorize(const Workflow& w, NodeId ab, NodeId a1,
                                 NodeId a2) {
  return CloneApply(
      w, [&](Workflow& n) { return ApplyFactorize(n, ab, a1, a2); });
}

StatusOr<Workflow> CopyDistribute(const Workflow& w, NodeId ab, NodeId a) {
  return CloneApply(w,
                    [&](Workflow& n) { return ApplyDistribute(n, ab, a); });
}

StatusOr<Workflow> CopyMerge(const Workflow& w, NodeId a1, NodeId a2) {
  return CloneApply(w, [&](Workflow& n) { return ApplyMerge(n, a1, a2); });
}

StatusOr<Workflow> CopySplit(const Workflow& w, NodeId a, size_t at) {
  return CloneApply(w, [&](Workflow& n) { return ApplySplit(n, a, at); });
}

// --- Swap legality: the paper's running-example cases ---

TEST(SwapTest, CurrencyAndDateConversionsCommute) {
  // $2E touches COST; A2E touches DATE: independent, swappable.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto swapped = CopySwap(s->workflow, s->to_euro, s->a2e_date);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped->EquivalentTo(s->workflow));
  // Empirically: same DW contents.
  auto same = ProduceSameOutput(s->workflow, *swapped, MakeFig1Input(1, 150));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same);
}

TEST(SwapTest, AggregationMovesBeforeDateConversion) {
  // The paper's Fig. 2: the aggregation may be pushed before the
  // (entity-preserving) American-to-European date conversion.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto swapped = CopySwap(s->workflow, s->a2e_date, s->aggregate);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped->EquivalentTo(s->workflow));
  auto same = ProduceSameOutput(s->workflow, *swapped, MakeFig1Input(2, 150));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
}

TEST(SwapTest, SelectionCannotPassAggregation) {
  // Distribute the threshold into the flows, then try to push the flow-2
  // clone above the aggregation: must be rejected, the selection reads the
  // summed COST_EUR (paper: "we cannot push the selection ... before the
  // aggregation").
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto dist = CopyDistribute(s->workflow, s->union_node, s->threshold);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  // Find the clone adjacent after the aggregation.
  NodeId clone = dist->Consumers(s->aggregate)[0];
  ASSERT_TRUE(dist->IsActivity(clone));
  ASSERT_EQ(dist->chain(clone).front().kind(), ActivityKind::kSelection);
  Status blocked = CopySwap(*dist, s->aggregate, clone).status();
  EXPECT_TRUE(blocked.IsFailedPrecondition()) << blocked.ToString();
}

TEST(SwapTest, SelectionCannotPassCurrencyConversion) {
  // The paper's Fig. 5: sigma(EUR) cannot be pushed before $2E.
  // Build a direct $2E -> sigma(EUR) adjacency.
  Workflow w;
  Schema src_schema = Schema::MakeOrDie({{"PKEY", DataType::kInt64},
                                         {"COST_USD", DataType::kDouble}});
  NodeId src = w.AddRecordSet({"SRC", src_schema, 100});
  NodeId to_euro = *w.AddActivity(
      *MakeFunction("to_euro", "dollar2euro", {"COST_USD"}, "COST_EUR",
                    DataType::kDouble, {"COST_USD"}),
      {src});
  NodeId sel = *w.AddActivity(
      *MakeSelection("sel",
                     Compare(CompareOp::kGe, Column("COST_EUR"),
                             Literal(Value::Double(100))),
                     0.5),
      {to_euro});
  NodeId tgt = w.AddRecordSet(
      {"TGT",
       Schema::MakeOrDie(
           {{"PKEY", DataType::kInt64}, {"COST_EUR", DataType::kDouble}}),
       0});
  ETLOPT_CHECK_OK(w.Connect(sel, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  Status blocked = CopySwap(w, to_euro, sel).status();
  EXPECT_TRUE(blocked.IsFailedPrecondition()) << blocked.ToString();
}

TEST(SwapTest, ProjectionCannotPassReaderOfDroppedAttr) {
  // The paper's Fig. 6: swapping would leave the rejected attribute
  // without a provider. Here nn reads DEPT; the projection drops DEPT.
  Workflow w;
  Schema src_schema = Schema::MakeOrDie({{"PKEY", DataType::kInt64},
                                         {"DEPT", DataType::kString}});
  NodeId src = w.AddRecordSet({"SRC", src_schema, 100});
  NodeId nn = *w.AddActivity(*MakeNotNull("nn_dept", "DEPT", 0.9), {src});
  NodeId proj = *w.AddActivity(*MakeProjection("drop_dept", {"DEPT"}), {nn});
  NodeId tgt = w.AddRecordSet(
      {"TGT", Schema::MakeOrDie({{"PKEY", DataType::kInt64}}), 0});
  ETLOPT_CHECK_OK(w.Connect(proj, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  Status blocked = CopySwap(w, nn, proj).status();
  EXPECT_TRUE(blocked.IsFailedPrecondition()) << blocked.ToString();
}

TEST(SwapTest, TwoFiltersAlwaysCommute) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  // Distribute sigma, then in each branch sigma + SK: sigma reads QTY,
  // SK changes SKEY -> swappable.
  auto dist = CopyDistribute(s->workflow, s->union_node, s->selection);
  ASSERT_TRUE(dist.ok());
  NodeId sigma1 = dist->Consumers(s->sk1)[0];
  auto swapped = CopySwap(*dist, s->sk1, sigma1);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  auto same = ProduceSameOutput(*dist, *swapped, MakeFig4Input(3, 64));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
}

TEST(SwapTest, NonAdjacentRejected) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(CopySwap(s->workflow, s->to_euro, s->aggregate).ok());
}

TEST(SwapTest, BinaryRejected) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(CopySwap(s->workflow, s->union_node, s->threshold).ok());
  EXPECT_FALSE(CopySwap(s->workflow, s->aggregate, s->union_node).ok());
}

TEST(SwapTest, CanSwapAgreesWithApplySwap) {
  // An applicability probe — apply in a session, then roll back — agrees
  // with the copying form and leaves the workflow untouched either way; a
  // rejected precheck opens no session at all.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  Workflow w = s->workflow;
  Workflow::UndoLog log;
  ASSERT_TRUE(ApplySwap(w, s->to_euro, s->a2e_date, &log).ok());
  EXPECT_TRUE(log.active());
  w.RollbackSurgery();
  EXPECT_TRUE(w.DebugEquals(s->workflow));
  EXPECT_TRUE(CopySwap(s->workflow, s->to_euro, s->a2e_date).ok());
  EXPECT_FALSE(ApplySwap(w, s->to_euro, s->aggregate, &log).ok());
  EXPECT_FALSE(log.active());
  EXPECT_TRUE(w.DebugEquals(s->workflow));
  EXPECT_FALSE(CopySwap(s->workflow, s->to_euro, s->aggregate).ok());
}

// --- Factorize / Distribute ---

TEST(FactorizeTest, Fig4SurrogateKeys) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  auto fac = CopyFactorize(s->workflow, s->union_node, s->sk1, s->sk2);
  ASSERT_TRUE(fac.ok()) << fac.status().ToString();
  // One fewer activity; the SK now sits right after the union.
  EXPECT_EQ(fac->ActivityCount(), s->workflow.ActivityCount() - 1);
  NodeId after_union = fac->Consumers(s->union_node)[0];
  ASSERT_TRUE(fac->IsActivity(after_union));
  EXPECT_EQ(fac->chain(after_union).front().kind(),
            ActivityKind::kSurrogateKey);
  // Theorem 2: equivalent, and empirically identical.
  EXPECT_TRUE(fac->EquivalentTo(s->workflow));
  auto same = ProduceSameOutput(s->workflow, *fac, MakeFig4Input(5, 64));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same);
}

TEST(FactorizeTest, NonHomologousRejected) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  // not_null and aggregate both feed the union but differ semantically.
  EXPECT_FALSE(
      CopyFactorize(s->workflow, s->union_node, s->not_null, s->aggregate)
          .ok());
}

TEST(FactorizeTest, SameNodeRejected) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(CopyFactorize(s->workflow, s->union_node, s->sk1, s->sk1)
                  .status()
                  .IsInvalidArgument());
}

TEST(DistributeTest, Fig1ThresholdIntoBranches) {
  // The Fig. 1 -> Fig. 2 rewrite: the threshold selection is distributed
  // into both branches so low values are pruned early.
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto dist = CopyDistribute(s->workflow, s->union_node, s->threshold);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->ActivityCount(), s->workflow.ActivityCount() + 1);
  EXPECT_TRUE(dist->EquivalentTo(s->workflow));
  auto same = ProduceSameOutput(s->workflow, *dist, MakeFig1Input(4, 200));
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same);
}

TEST(DistributeTest, RoundTripWithFactorize) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto dist = CopyDistribute(s->workflow, s->union_node, s->threshold);
  ASSERT_TRUE(dist.ok());
  NodeId c1 = dist->Consumers(s->not_null)[0];
  NodeId c2 = dist->Consumers(s->aggregate)[0];
  auto fac = CopyFactorize(*dist, s->union_node, c1, c2);
  ASSERT_TRUE(fac.ok()) << fac.status().ToString();
  // Same signature as the original state (ids are reused).
  EXPECT_EQ(fac->Signature(), s->workflow.Signature());
}

TEST(DistributeTest, AggregationOverUnionRejected) {
  // gamma(A union B) != gamma(A) union gamma(B) when groups span flows.
  Workflow w;
  Schema sch = Schema::MakeOrDie({{"K", DataType::kString},
                                  {"V", DataType::kDouble}});
  NodeId s1 = w.AddRecordSet({"S1", sch, 50});
  NodeId s2 = w.AddRecordSet({"S2", sch, 50});
  NodeId u = *w.AddActivity(*MakeUnion("u"), {s1, s2});
  NodeId agg = *w.AddActivity(
      *MakeAggregation("g", {"K"}, {{AggFn::kSum, "V", "V"}}, 0.5), {u});
  NodeId tgt = w.AddRecordSet({"T", sch, 0});
  ETLOPT_CHECK_OK(w.Connect(agg, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  Status blocked = CopyDistribute(w, u, agg).status();
  EXPECT_TRUE(blocked.IsFailedPrecondition()) << blocked.ToString();
}

TEST(DistributeTest, PkCheckOverUnionRejected) {
  Workflow w;
  Schema sch = Schema::MakeOrDie({{"K", DataType::kString},
                                  {"V", DataType::kDouble}});
  NodeId s1 = w.AddRecordSet({"S1", sch, 50});
  NodeId s2 = w.AddRecordSet({"S2", sch, 50});
  NodeId u = *w.AddActivity(*MakeUnion("u"), {s1, s2});
  NodeId pk = *w.AddActivity(*MakePrimaryKeyCheck("pk", {"K"}, 0.9), {u});
  NodeId tgt = w.AddRecordSet({"T", sch, 0});
  ETLOPT_CHECK_OK(w.Connect(pk, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  EXPECT_FALSE(CopyDistribute(w, u, pk).ok());
}

TEST(DistributeTest, FilterOverDifferenceAllowedFunctionRejected) {
  Workflow w;
  Schema sch = Schema::MakeOrDie({{"K", DataType::kString},
                                  {"V", DataType::kDouble}});
  NodeId s1 = w.AddRecordSet({"S1", sch, 50});
  NodeId s2 = w.AddRecordSet({"S2", sch, 50});
  NodeId diff = *w.AddActivity(*MakeDifference("d", 0.6), {s1, s2});
  NodeId sel = *w.AddActivity(
      *MakeSelection("sel",
                     Compare(CompareOp::kGt, Column("V"),
                             Literal(Value::Double(0))),
                     0.5),
      {diff});
  NodeId tgt = w.AddRecordSet({"T", sch, 0});
  ETLOPT_CHECK_OK(w.Connect(sel, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  // Filter distributes over difference.
  auto dist = CopyDistribute(w, diff, sel);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_TRUE(dist->EquivalentTo(w));

  // A value-transforming function does not.
  Workflow w2;
  NodeId t1 = w2.AddRecordSet({"S1", sch, 50});
  NodeId t2 = w2.AddRecordSet({"S2", sch, 50});
  NodeId diff2 = *w2.AddActivity(*MakeDifference("d", 0.6), {t1, t2});
  NodeId fn = *w2.AddActivity(
      *MakeInPlaceFunction("f", "round", "V", DataType::kDouble), {diff2});
  NodeId tgt2 = w2.AddRecordSet({"T", sch, 0});
  ETLOPT_CHECK_OK(w2.Connect(fn, tgt2));
  ETLOPT_CHECK_OK(w2.Finalize());
  EXPECT_FALSE(CopyDistribute(w2, diff2, fn).ok());
}

TEST(DistributeTest, KeyFilterOverJoinAllowedNonKeyRejected) {
  Workflow w;
  Schema left = Schema::MakeOrDie({{"K", DataType::kInt64},
                                   {"A", DataType::kString}});
  Schema right = Schema::MakeOrDie({{"K", DataType::kInt64},
                                    {"B", DataType::kDouble}});
  NodeId s1 = w.AddRecordSet({"L", left, 50});
  NodeId s2 = w.AddRecordSet({"R", right, 50});
  NodeId join = *w.AddActivity(*MakeJoin("j", {"K"}, 0.05), {s1, s2});
  NodeId key_sel = *w.AddActivity(
      *MakeSelection("key_sel",
                     Compare(CompareOp::kGt, Column("K"),
                             Literal(Value::Int(10))),
                     0.5),
      {join});
  Schema out = Schema::MakeOrDie({{"K", DataType::kInt64},
                                  {"A", DataType::kString},
                                  {"B", DataType::kDouble}});
  NodeId tgt = w.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(w.Connect(key_sel, tgt));
  ETLOPT_CHECK_OK(w.Finalize());
  auto dist = CopyDistribute(w, join, key_sel);
  EXPECT_TRUE(dist.ok()) << dist.status().ToString();

  // Non-key filter cannot be cloned into both inputs (B only exists on
  // the right).
  Workflow w2;
  NodeId u1 = w2.AddRecordSet({"L", left, 50});
  NodeId u2 = w2.AddRecordSet({"R", right, 50});
  NodeId join2 = *w2.AddActivity(*MakeJoin("j", {"K"}, 0.05), {u1, u2});
  NodeId b_sel = *w2.AddActivity(
      *MakeSelection("b_sel",
                     Compare(CompareOp::kGt, Column("B"),
                             Literal(Value::Double(0))),
                     0.5),
      {join2});
  NodeId tgt2 = w2.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(w2.Connect(b_sel, tgt2));
  ETLOPT_CHECK_OK(w2.Finalize());
  EXPECT_FALSE(CopyDistribute(w2, join2, b_sel).ok());
}

TEST(DistributeTest, NotDirectConsumerRejected) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  // sk1 is a provider, not a consumer, of the union.
  EXPECT_FALSE(CopyDistribute(s->workflow, s->union_node, s->sk1).ok());
}

// --- Merge / Split ---

TEST(MergeTest, PackagesPairAndBlocksInterleaving) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto merged = CopyMerge(s->workflow, s->to_euro, s->a2e_date);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->chain(s->to_euro).size(), 2u);
  // Merging preserves semantics.
  EXPECT_TRUE(merged->EquivalentTo(s->workflow));
  auto same = ProduceSameOutput(s->workflow, *merged, MakeFig1Input(6, 100));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
  // The merged unit can NOT swap with the aggregation: the aggregation
  // reads COST_EUR, which the packaged $2E member computes. Merging makes
  // the pair inherit the union of its members' constraints.
  Status blocked = CopySwap(*merged, s->to_euro, s->aggregate).status();
  EXPECT_TRUE(blocked.IsFailedPrecondition()) << blocked.ToString();
}

TEST(MergeTest, MergedFilterPairSwapsAsAUnit) {
  // src -> nn(V) -> nn(W) -> sigma(V>0) -> tgt; package the two NotNulls
  // and swap the package with the selection in one move.
  Workflow w;
  Schema sch = Schema::MakeOrDie({{"V", DataType::kDouble},
                                  {"W", DataType::kDouble}});
  NodeId src = w.AddRecordSet({"SRC", sch, 100});
  NodeId nnv = *w.AddActivity(*MakeNotNull("nn_v", "V", 0.9), {src});
  NodeId nnw = *w.AddActivity(*MakeNotNull("nn_w", "W", 0.9), {nnv});
  NodeId sel = *w.AddActivity(
      *MakeSelection("sel",
                     Compare(CompareOp::kGt, Column("V"),
                             Literal(Value::Double(0))),
                     0.5),
      {nnw});
  NodeId tgt = w.AddRecordSet({"TGT", sch, 0});
  ETLOPT_CHECK_OK(w.Connect(sel, tgt));
  ETLOPT_CHECK_OK(w.Finalize());

  auto merged = CopyMerge(w, nnv, nnw);
  ASSERT_TRUE(merged.ok());
  auto swapped = CopySwap(*merged, nnv, sel);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  // The selection now runs first; the merged pair follows it.
  EXPECT_EQ(swapped->Providers(sel), (std::vector<NodeId>{src}));
  EXPECT_EQ(swapped->Providers(nnv), (std::vector<NodeId>{sel}));
  EXPECT_TRUE(swapped->EquivalentTo(w));
}

TEST(MergeTest, SplitRestoresOriginal) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto merged = CopyMerge(s->workflow, s->to_euro, s->a2e_date);
  ASSERT_TRUE(merged.ok());
  auto split = CopySplit(*merged, s->to_euro, 1);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->Signature(), s->workflow.Signature());
}

TEST(MergeTest, NonAdjacentRejected) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(CopyMerge(s->workflow, s->to_euro, s->aggregate).ok());
}

// --- Theorem 1: untouched schemata are preserved ---

TEST(TheoremTest, SwapPreservesSchemataOutsideAffectedSet) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  auto swapped = CopySwap(s->workflow, s->a2e_date, s->aggregate);
  ASSERT_TRUE(swapped.ok());
  // Nodes outside {a2e_date, aggregate} keep their schemata.
  for (NodeId id : s->workflow.NodeIds()) {
    if (id == s->a2e_date || id == s->aggregate) continue;
    EXPECT_EQ(s->workflow.OutputSchema(id), swapped->OutputSchema(id))
        << "node " << id;
  }
}

}  // namespace
}  // namespace etlopt
