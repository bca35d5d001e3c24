#include "optimizer/annealing.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "graph/analysis.h"
#include "optimizer/budget.h"
#include "optimizer/state_eval.h"
#include "optimizer/transitions.h"

namespace etlopt {

namespace {

// A proposable move; operands are looked up lazily because node ids churn
// as transitions apply.
struct Move {
  enum class Kind { kSwap, kFactorize, kDistribute };
  Kind kind = Kind::kSwap;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  NodeId binary = kInvalidNode;
};

// Collects every structurally plausible move in `w` (semantic legality is
// checked on application).
std::vector<Move> CollectMoves(const Workflow& w) {
  std::vector<Move> moves;
  for (NodeId u : w.ActivityNodeIds()) {
    if (!w.chain(u).is_unary()) continue;
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() == 1 && w.IsActivity(consumers[0]) &&
        w.chain(consumers[0]).is_unary()) {
      moves.push_back({Move::Kind::kSwap, u, consumers[0], kInvalidNode});
    }
  }
  for (const auto& h : FindHomologousPairs(w)) {
    moves.push_back({Move::Kind::kFactorize, h.a1, h.a2, h.binary});
  }
  for (const auto& d : FindDistributable(w)) {
    moves.push_back({Move::Kind::kDistribute, d.node, kInvalidNode, d.binary});
  }
  return moves;
}

// Applies `move` in a new surgery session on `log` (see transitions.h).
Status ApplyMove(Workflow& w, const Move& move, Workflow::UndoLog& log) {
  switch (move.kind) {
    case Move::Kind::kSwap:
      return ApplySwap(w, move.a, move.b, &log);
    case Move::Kind::kFactorize:
      return ApplyFactorize(w, move.binary, move.a, move.b, &log);
    case Move::Kind::kDistribute:
      return ApplyDistribute(w, move.binary, move.a, &log);
  }
  return Status::Internal("bad move kind");
}

}  // namespace

StatusOr<SearchResult> SimulatedAnnealingSearch(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options, const AnnealingOptions& annealing) {
  ETLOPT_RETURN_NOT_OK(ValidateSearchOptions(options));
  Budget budget(options);
  StateEvaluator eval(model, options.cache_hint, options.reliability);
  Rng rng(annealing.seed);
  const size_t copies0 = Workflow::TotalCopies();
  const size_t undos0 = Workflow::TotalUndos();

  Workflow w0 = initial;
  if (!w0.fresh()) {
    ETLOPT_RETURN_NOT_OK(w0.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(State s0, eval.Eval(std::move(w0)));
  auto current = std::make_shared<const State>(std::move(s0));
  SearchResult result;
  result.initial_cost = current->cost;
  // `best` aliases `current` — tracking the incumbent never copies a
  // workflow.
  auto best = current;
  ++budget.visited;

  // Zero-copy proposal loop: one scratch workflow mirrors `current` (same
  // bytes, same cleared dirty set); every proposal mutates it in place and
  // either commits (accepted move — the scratch simply becomes the new
  // current's twin) or rolls back. The only per-move copy left is the
  // materialization of an *accepted* candidate.
  Workflow scratch = current->workflow;
  Workflow::UndoLog log;

  double temperature =
      annealing.initial_temperature_fraction * result.initial_cost;
  const double floor_temperature =
      annealing.min_temperature_fraction * result.initial_cost;
  bool budget_hit = false;

  while (temperature > floor_temperature) {
    for (size_t step = 0; step < annealing.steps_per_temperature; ++step) {
      if (budget.Exhausted()) {
        budget_hit = true;
        break;
      }
      std::vector<Move> moves = CollectMoves(current->workflow);
      if (moves.empty()) break;
      const Move& move = moves[rng.UniformIndex(moves.size())];
      ++budget.generated;
      Status applied = ApplyMove(scratch, move, log);
      if (!applied.ok()) continue;  // semantically illegal: rolled back
      // Each proposal is one transition away from `current`, so it
      // delta-recosts against it.
      auto ne = eval.EvalNeighbor(scratch, *current);
      if (!ne.ok()) {
        scratch.RollbackSurgery();
        return ne.status();
      }
      ++budget.visited;
      double delta = ne.value().cost - current->cost;
      bool accept = delta <= 0.0 ||
                    rng.UniformDouble() < std::exp(-delta / temperature);
      if (accept) {
        State candidate = eval.MaterializeState(scratch, ne.value());
        scratch.CommitSurgery();
        // Keep the scratch the new current's twin: the materialized
        // state restarted its dirty set, so the scratch must too.
        scratch.ClearDirtyNodes();
        current = std::make_shared<const State>(std::move(candidate));
        if (current->cost < best->cost) best = current;
      } else {
        scratch.RollbackSurgery();
        eval.ParanoidCheckRestore(scratch, *current);
      }
    }
    if (budget_hit) break;
    temperature *= annealing.cooling;
  }

  result.best = *best;
  result.best.signature = result.best.workflow.Signature();
  result.visited_states = budget.visited;
  result.elapsed_millis = budget.ElapsedMillis();
  result.exhausted = !budget_hit;
  result.perf = eval.perf();
  result.perf.workflow_copies = Workflow::TotalCopies() - copies0;
  result.perf.undo_applies = Workflow::TotalUndos() - undos0;
  ETLOPT_RETURN_NOT_OK(FinalizeRecoveryPlan(result, model, options));
  return result;
}

}  // namespace etlopt
