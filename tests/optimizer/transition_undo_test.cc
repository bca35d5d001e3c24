// Apply→undo property tests for the in-place transition surgery (the
// zero-copy neighbor-generation path): every transition applied to a
// workflow under a Workflow::UndoLog and rolled back must restore the
// workflow byte-identically — text dump, canonical signature and its
// hash, every node's computed schema, edges, and the full DebugEquals
// comparison (node payloads, interned schema pointers, dirty set, id
// counter, flags). Rejected transitions must restore just as exactly.
//
// The workflows are seeded random scenarios from the workload generator,
// so the sweep covers every structural situation the search meets; a
// random walk with committed surgeries additionally exercises merged and
// redistributed mid-search states.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "graph/analysis.h"
#include "graph/workflow.h"
#include "io/text_format.h"
#include "optimizer/transitions.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

bool HasMergedChains(const Workflow& w) {
  for (NodeId id : w.ActivityNodeIds()) {
    if (w.chain(id).size() > 1) return true;
  }
  return false;
}

// Everything observable about a workflow's logical state, captured as
// plain values so before/after comparisons are byte-exact.
struct Snapshot {
  std::string text;  // empty when merged chains make the dump unavailable
  std::string signature;
  uint64_t hash = 0;
  std::vector<WorkflowEdge> edges;
  std::vector<std::pair<NodeId, std::string>> out_schemas;
  size_t approx_bytes = 0;
};

Snapshot Capture(const Workflow& w) {
  Snapshot s;
  if (!HasMergedChains(w)) {
    TextFormatOptions opts;
    opts.emit_plabels = true;
    auto text = PrintWorkflowText(w, opts);
    ETLOPT_CHECK_OK(text.status());
    s.text = *text;
  }
  s.signature = w.Signature();
  s.hash = w.SignatureHash();
  s.edges = w.edges();
  for (NodeId id : w.NodeIds()) {
    s.out_schemas.emplace_back(id, w.OutputSchema(id).ToString());
  }
  s.approx_bytes = w.ApproxMemoryBytes();
  return s;
}

void ExpectSame(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.edges.size(), b.edges.size());
  EXPECT_TRUE(a.edges == b.edges);
  EXPECT_EQ(a.out_schemas, b.out_schemas);
  EXPECT_EQ(a.approx_bytes, b.approx_bytes);
}

Workflow Generate(WorkloadCategory category, uint64_t seed) {
  GeneratorOptions gen;
  gen.category = category;
  gen.seed = seed;
  auto g = GenerateWorkflow(gen);
  ETLOPT_CHECK_OK(g.status());
  Workflow w = std::move(g->workflow);
  ETLOPT_CHECK_OK(w.Refresh());
  w.ClearDirtyNodes();
  return w;
}

// Runs apply→undo (or apply-rejected) for every candidate transition of
// `w` — legal and illegal alike — asserting after each one that the
// workflow is back to its starting state exactly. Returns the number of
// transitions that applied successfully.
size_t SweepAllTransitions(Workflow& w) {
  const Workflow pristine = w;
  const Snapshot before = Capture(w);
  Workflow::UndoLog log;
  size_t applied = 0;

  auto check_restored = [&]() {
    ASSERT_FALSE(w.surgery_active());
    ASSERT_TRUE(w.DebugEquals(pristine));
    ExpectSame(before, Capture(w));
  };
  auto run = [&](Status st) {
    if (st.ok()) {
      EXPECT_TRUE(w.fresh());
      ++applied;
      w.RollbackSurgery();
    }
    check_restored();
  };

  // SWA over every activity->activity adjacency (including pairs the
  // preconditions reject).
  for (NodeId u : w.ActivityNodeIds()) {
    for (NodeId d : w.Consumers(u)) {
      if (!w.IsActivity(d)) continue;
      run(ApplySwap(w, u, d, &log));
    }
  }
  for (const auto& h : FindHomologousPairs(w)) {
    run(ApplyFactorize(w, h.binary, h.a1, h.a2, &log));
  }
  for (const auto& d : FindDistributable(w)) {
    run(ApplyDistribute(w, d.binary, d.node, &log));
  }
  // MER over every single-consumer activity pair.
  for (NodeId u : w.ActivityNodeIds()) {
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() != 1 || !w.IsActivity(consumers[0])) continue;
    run(ApplyMerge(w, u, consumers[0], &log));
  }
  // SPL at every position, legal (interior of a multi-member chain) and
  // illegal (0 and size()).
  for (NodeId id : w.ActivityNodeIds()) {
    for (size_t at = 0; at <= w.chain(id).size(); ++at) {
      run(ApplySplit(w, id, at, &log));
    }
  }
  return applied;
}

struct UndoCase {
  WorkloadCategory category;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<UndoCase>& info) {
  return std::string(WorkloadCategoryToString(info.param.category)) + "_seed" +
         std::to_string(info.param.seed);
}

class TransitionUndoTest : public ::testing::TestWithParam<UndoCase> {};

TEST_P(TransitionUndoTest, EveryTransitionRoundTripsOnGeneratedWorkflow) {
  Workflow w = Generate(GetParam().category, GetParam().seed);
  size_t applied = SweepAllTransitions(w);
  // The generator always leaves room for at least some legal transitions;
  // a sweep that applied nothing would test only the rejection path.
  EXPECT_GT(applied, 0u);
}

TEST_P(TransitionUndoTest, RandomWalkWithCommitsKeepsRoundTripInvariant) {
  // Interleave committed transitions (the walk) with full apply→undo
  // sweeps, so the invariant is also checked from merged, factorized and
  // redistributed mid-search states that the generator never emits.
  Workflow w = Generate(GetParam().category, GetParam().seed);
  Rng rng(GetParam().seed * 977 + 71);
  Workflow::UndoLog log;
  const int steps = 12;
  for (int step = 0; step < steps; ++step) {
    struct Move {
      int kind;  // 0=SWA 1=FAC 2=DIS 3=MER 4=SPL
      NodeId a = kInvalidNode, b = kInvalidNode, binary = kInvalidNode;
      size_t at = 0;
    };
    std::vector<Move> moves;
    for (NodeId u : w.ActivityNodeIds()) {
      std::vector<NodeId> consumers = w.Consumers(u);
      if (consumers.size() == 1 && w.IsActivity(consumers[0])) {
        moves.push_back({0, u, consumers[0]});
        moves.push_back({3, u, consumers[0]});
      }
      if (w.chain(u).size() > 1) moves.push_back({4, u, kInvalidNode,
                                                  kInvalidNode, 1});
    }
    for (const auto& h : FindHomologousPairs(w)) {
      moves.push_back({1, h.a1, h.a2, h.binary});
    }
    for (const auto& d : FindDistributable(w)) {
      moves.push_back({2, d.node, kInvalidNode, d.binary});
    }
    if (moves.empty()) break;
    const Move m = moves[rng.UniformIndex(moves.size())];
    const Workflow pristine = w;
    const Snapshot before = Capture(w);
    Status st = Status::OK();
    switch (m.kind) {
      case 0: st = ApplySwap(w, m.a, m.b, &log); break;
      case 1: st = ApplyFactorize(w, m.binary, m.a, m.b, &log); break;
      case 2: st = ApplyDistribute(w, m.binary, m.a, &log); break;
      case 3: st = ApplyMerge(w, m.a, m.b, &log); break;
      case 4: st = ApplySplit(w, m.a, m.at, &log); break;
    }
    if (st.ok() && rng.Bernoulli(0.5)) {
      w.CommitSurgery();  // walk forward from the mutated state
      continue;
    }
    if (st.ok()) w.RollbackSurgery();
    ASSERT_TRUE(w.DebugEquals(pristine));
    ExpectSame(before, Capture(w));
  }
  // Whatever state the walk reached, the full sweep must still round-trip.
  SweepAllTransitions(w);
}

TEST_P(TransitionUndoTest, NestedSessionRollsBackInnermostFirst) {
  // Mirrors the optimizer's path-replay BFS: an outer session replays a
  // swap chain, inner sessions apply and roll back candidate transitions
  // on the reconstruction (each inner rollback must restore the
  // reconstruction, not the original), and the outer rollback finally
  // restores the original workflow byte-identically.
  Workflow w = Generate(GetParam().category, GetParam().seed);
  const Workflow pristine = w;
  const Snapshot before = Capture(w);
  Workflow::UndoLog outer_log;
  Workflow::UndoLog inner_log;

  w.BeginSurgery(&outer_log);
  size_t replayed = 0;
  for (NodeId u : w.ActivityNodeIds()) {
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() != 1 || !w.IsActivity(consumers[0])) continue;
    if (ApplySwap(w, u, consumers[0]).ok()) {
      if (++replayed >= 2) break;
    }
  }
  ASSERT_GT(replayed, 0u);
  ETLOPT_CHECK_OK(w.Refresh());
  w.ClearDirtyNodes();
  // The copy never inherits the open session, so `mid` is the clean
  // byte-compare target for every inner rollback.
  const Workflow mid = w;
  const Snapshot mid_snap = Capture(w);

  size_t inner_applied = 0;
  for (NodeId u : w.ActivityNodeIds()) {
    for (NodeId d : w.Consumers(u)) {
      if (!w.IsActivity(d)) continue;
      Status st = ApplySwap(w, u, d, &inner_log);
      if (st.ok()) {
        ++inner_applied;
        w.RollbackSurgery();  // pops the inner session only
      }
      ASSERT_TRUE(w.surgery_active());
      ASSERT_TRUE(w.DebugEquals(mid));
      ExpectSame(mid_snap, Capture(w));
    }
  }
  EXPECT_GT(inner_applied, 0u);

  w.RollbackSurgery();
  ASSERT_FALSE(w.surgery_active());
  ASSERT_TRUE(w.DebugEquals(pristine));
  ExpectSame(before, Capture(w));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransitionUndoTest,
    ::testing::Values(UndoCase{WorkloadCategory::kSmall, 11},
                      UndoCase{WorkloadCategory::kSmall, 12},
                      UndoCase{WorkloadCategory::kMedium, 21},
                      UndoCase{WorkloadCategory::kMedium, 22},
                      UndoCase{WorkloadCategory::kLarge, 31}),
    CaseName);

}  // namespace
}  // namespace etlopt
