#include "optimizer/search.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/thread_pool.h"
#include "graph/analysis.h"
#include "optimizer/budget.h"
#include "optimizer/state_eval.h"
#include "optimizer/transitions.h"

namespace etlopt {

namespace {

bool IsUnaryActivityNode(const Workflow& w, NodeId id) {
  return w.IsActivity(id) && w.chain(id).is_unary();
}

// Shared handle to an immutable search state. The bookkeeping structures
// (visited maps, worklists, BFS queues, running minima) all alias the
// same underlying State, so shuffling a state between them never copies
// its workflow — only candidate evaluation and materialization touch
// workflow storage, which is what the copy counters measure.
using StateRef = std::shared_ptr<const State>;

StateRef ShareState(State&& st) {
  // The pointee is built non-const: serial runs temporarily mutate a base
  // state's workflow under an open surgery session (and roll it back);
  // casting constness off a genuinely const object would be undefined.
  return std::make_shared<State>(std::move(st));
}

// One not-yet-applied transition and its trace record. `apply` runs the
// transition on a workflow equal to the base, in a new surgery session on
// the given log (or directly when the log is null; see transitions.h). It
// captures only node ids, so it can be applied to the base itself or to
// any scratch copy of it.
struct Candidate {
  std::function<Status(Workflow&, Workflow::UndoLog*)> apply;
  TransitionRecord rec;
};

// Per-worker scratch workflows (plus one spare for materialization) for
// zero-copy neighbor generation. A worker copies the base into its slot
// only when the slot holds something else, so consecutive evaluation
// rounds against the same base — the common case when sweeps converge
// without improving — cost no copy at all. Every apply→undo round trip
// leaves the slot equal to its base (the key stays truthful);
// materialization *steals* a synced slot outright (the workflow moves
// into the State, no copy) and invalidates it.
//
// Reuse is keyed on the *source instance* (address of the immutable base
// workflow) plus its signature hash — not the hash alone. Two states can
// share a canonical signature yet differ byte-wise (node-id layout and
// table order depend on the derivation path), so a hash-only match could
// hand a worker a byte-different twin and break the exact-restore
// contract. Bases with no stable identity — the path-replay BFS rebuilds
// its base in a function-local cache whose address recurs across calls —
// sync under an *ephemeral round* instead: they match only within the
// same round (one EvalCandidates call), never across. Paranoid builds
// byte-verify every reuse.
class NeighborScratch {
 public:
  explicit NeighborScratch(size_t workers) : slots_(workers + 1) {}

  // Starts a new ephemeral round; slots previously synced from an
  // ephemeral base stop matching.
  void BeginEphemeralRound() { ++round_; }

  // `base_id` identifies the base instance: the address of a workflow
  // that stays alive and unmutated while the slot may be reused, or
  // nullptr for an ephemeral base (matches within the current round
  // only).
  Workflow& Acquire(size_t slot, const Workflow& base_wf, uint64_t base_hash,
                    const void* base_id) {
    Slot& s = slots_[slot];
    const bool match =
        s.valid && s.base_hash == base_hash &&
        (base_id != nullptr ? s.src == base_id
                            : (s.src == nullptr && s.round == round_));
    if (!match) {
      s.workflow = base_wf;
      s.base_hash = base_hash;
      s.src = base_id;
      s.round = round_;
      s.valid = true;
    }
#ifdef ETLOPT_PARANOID_CHECKS
    else {
      ETLOPT_CHECK(s.workflow.DebugEquals(base_wf));
    }
#endif
    return s.workflow;
  }

  // A slot whose workflow equals the (durable) base, preferring one
  // already synced from this very instance (free); falls back to syncing
  // the spare slot. The caller consumes the workflow by move and must
  // Invalidate() the slot, or keep mutating it and re-key it with Rekey.
  size_t AcquireSynced(const Workflow& base_wf, uint64_t base_hash) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].valid && slots_[i].src == &base_wf &&
          slots_[i].base_hash == base_hash) {
#ifdef ETLOPT_PARANOID_CHECKS
        ETLOPT_CHECK(slots_[i].workflow.DebugEquals(base_wf));
#endif
        return i;
      }
    }
    Acquire(slots_.size() - 1, base_wf, base_hash, &base_wf);
    return slots_.size() - 1;
  }

  Workflow& workflow(size_t slot) { return slots_[slot].workflow; }
  Workflow::UndoLog& log(size_t slot) { return slots_[slot].log; }

  // Re-keys a slot after its workflow was mutated and committed in place.
  // `src` names the instance the slot now mirrors (e.g. the State just
  // materialized by copy from it), or nullptr when the content has no
  // durable twin — the slot then stays private to its current holder.
  void Rekey(size_t slot, const void* src, uint64_t hash) {
    slots_[slot].src = src;
    slots_[slot].base_hash = hash;
    slots_[slot].round = 0;  // durable (or unmatchable): not round-scoped
    slots_[slot].valid = true;
  }

  // Marks a slot's content as consumed (moved-from); the next Acquire of
  // the slot re-copies.
  void Invalidate(size_t slot) { slots_[slot].valid = false; }

 private:
  struct Slot {
    Workflow workflow;
    Workflow::UndoLog log;
    const void* src = nullptr;
    uint64_t base_hash = 0;
    uint64_t round = 0;
    bool valid = false;
  };
  std::vector<Slot> slots_;
  // Ephemeral rounds start at 1 so a default-initialized slot (round 0)
  // never matches one.
  uint64_t round_ = 1;
};

// What EvalCandidates reports per candidate: only the light fields — the
// neighbor itself was rolled back. A consumer that keeps the candidate
// promotes it via MaterializeOutcome.
struct CandidateOutcome {
  bool alive = false;
  uint64_t signature_hash = 0;
  double cost = 0.0;
  std::shared_ptr<const CostBreakdown> breakdown;
  /// String signature for SignatureInterner cross-checks; filled only
  /// under paranoid checks.
  std::string paranoid_sig;
};

// Evaluates all candidate transitions of a base workflow, fanning out
// over `pool` when one is given, and returns per-candidate outcomes *in
// candidate order* — workers fill index-slotted results, so the outcome
// is byte-identical to a serial loop. A candidate whose transition is
// rejected is left !alive; an evaluation error propagates (the pool
// reports the smallest failing index, matching what a serial loop would
// return).
//
// The base is split into workflow and figures so callers holding only a
// light state — cost, hash, breakdown, but no owned workflow (the
// path-replay BFS) — can evaluate against a reconstructed workflow;
// `base_meta.workflow` is never read. The base workflow may carry an open
// surgery session: the serial path nests one candidate session inside it,
// and parallel workers copy it (copies never inherit a session).
// `ephemeral_base` marks a base whose address does not outlive the call
// (a replayed reconstruction): scratch slots synced from it are scoped to
// this call and never reused against a later base.
//
// Each candidate is applied in place, hashed, delta-costed and rolled
// back — no per-candidate Workflow copy. Serial runs apply candidates to
// the base workflow itself, one at a time; parallel workers each mutate a
// private scratch copy. Paranoid builds verify every rollback restored
// the base exactly — on the serial path against a twin taken before the
// first apply, since base and scratch are one object there.
StatusOr<std::vector<CandidateOutcome>> EvalCandidates(
    const Workflow& base_wf, const State& base_meta,
    const std::vector<Candidate>& candidates, const StateEvaluator& eval,
    ThreadPool* pool, NeighborScratch* scratch, bool ephemeral_base = false) {
  const bool direct = pool == nullptr;
  const void* base_id = ephemeral_base ? nullptr : &base_wf;
  if (!direct && ephemeral_base) scratch->BeginEphemeralRound();
#ifdef ETLOPT_PARANOID_CHECKS
  const Workflow twin = direct ? base_wf : Workflow();
  const Workflow& restore_target = direct ? twin : base_wf;
#endif
  std::vector<CandidateOutcome> outcomes(candidates.size());
  auto eval_one = [&](size_t i, size_t worker) -> Status {
    CandidateOutcome& o = outcomes[i];
    Workflow& wf = direct ? const_cast<Workflow&>(base_wf)
                          : scratch->Acquire(worker, base_wf,
                                             base_meta.signature_hash, base_id);
    Status applied = candidates[i].apply(wf, &scratch->log(worker));
    if (!applied.ok()) return Status::OK();  // illegal transition: prune
    auto ne = eval.EvalNeighbor(wf, base_meta);
    wf.RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
    eval.ParanoidCheckRestore(wf, restore_target, base_meta.signature_hash,
                              base_meta.cost);
#endif
    if (!ne.ok()) return ne.status();
    o.alive = true;
    o.signature_hash = ne.value().signature_hash;
    o.cost = ne.value().cost;
    o.breakdown = std::move(ne.value().breakdown);
    o.paranoid_sig = std::move(ne.value().signature);
    return Status::OK();
  };
  if (pool != nullptr && candidates.size() > 1) {
    ETLOPT_RETURN_NOT_OK(pool->ParallelFor(candidates.size(), eval_one));
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) {
      ETLOPT_RETURN_NOT_OK(eval_one(i, 0));
    }
  }
  return outcomes;
}

// Promotes a surviving candidate to a full State: deterministically
// re-apply the transition to a scratch slot still synced to the base (the
// undo log restored the id counter, so the re-applied neighbor is
// bit-identical to the evaluated one), commit, and *move* the workflow
// into the State —
// the slot a worker already synced this round is consumed outright, so
// promoting the first survivor of a round costs no copy at all.
//
// Runs sequentially, after EvalCandidates' workers have all rolled back.
StatusOr<State> MaterializeOutcome(const State& base, const Candidate& c,
                                   const CandidateOutcome& o,
                                   const StateEvaluator& eval,
                                   NeighborScratch* scratch) {
  ETLOPT_CHECK(o.alive);
  const size_t slot =
      scratch->AcquireSynced(base.workflow, base.signature_hash);
  Workflow& wf = scratch->workflow(slot);
  // The light evaluation already accepted this transition on an identical
  // workflow, so the re-apply cannot fail.
  ETLOPT_RETURN_NOT_OK(c.apply(wf, &scratch->log(slot)));
#ifdef ETLOPT_PARANOID_CHECKS
  // The re-applied neighbor must be the evaluated one, bit for bit.
  ETLOPT_CHECK(wf.SignatureHash() == o.signature_hash);
#endif
  NeighborEval ne;
  ne.signature_hash = o.signature_hash;
  ne.cost = o.cost;
  ne.breakdown = o.breakdown;
  wf.CommitSurgery();
  scratch->Invalidate(slot);
  return eval.MaterializeState(std::move(wf), ne);
}

// The candidate successors of `w` under SWA, FAC, DIS, in the canonical
// enumeration order (ascending node ids; analysis order for pairs).
std::vector<Candidate> CollectSuccessorCandidates(const Workflow& w) {
  std::vector<Candidate> out;

  // SWA over every adjacent unary pair.
  for (NodeId u : w.ActivityNodeIds()) {
    if (!IsUnaryActivityNode(w, u)) continue;
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() != 1 || !IsUnaryActivityNode(w, consumers[0]))
      continue;
    NodeId d = consumers[0];
    out.push_back(
        {[u, d](Workflow& s, Workflow::UndoLog* log) {
           return ApplySwap(s, u, d, log);
         },
         TransitionRecord{TransitionRecord::Kind::kSwap,
                          StrFormat("SWA(%s,%s)",
                                    w.PriorityLabelOf(u).c_str(),
                                    w.PriorityLabelOf(d).c_str())}});
  }

  // FAC over homologous pairs adjacent to their binary.
  for (const auto& h : FindHomologousPairs(w)) {
    out.push_back(
        {[h](Workflow& s, Workflow::UndoLog* log) {
           return ApplyFactorize(s, h.binary, h.a1, h.a2, log);
         },
         TransitionRecord{TransitionRecord::Kind::kFactorize,
                          StrFormat("FAC(%s,%s,%s)",
                                    w.PriorityLabelOf(h.binary).c_str(),
                                    w.PriorityLabelOf(h.a1).c_str(),
                                    w.PriorityLabelOf(h.a2).c_str())}});
  }

  // DIS of direct consumers of binary activities.
  for (const auto& d : FindDistributable(w)) {
    out.push_back(
        {[d](Workflow& s, Workflow::UndoLog* log) {
           return ApplyDistribute(s, d.binary, d.node, log);
         },
         TransitionRecord{TransitionRecord::Kind::kDistribute,
                          StrFormat("DIS(%s,%s)",
                                    w.PriorityLabelOf(d.binary).c_str(),
                                    w.PriorityLabelOf(d.node).c_str())}});
  }
  return out;
}

// Read-only legality walk of a forward shift chain: true when every node
// between `a` and `stop` is a single-consumer unary activity — the exact
// sequence of structural checks ShiftForward performs, evaluated before a
// surgery session is opened. A semantically illegal swap can still
// fail inside the chain afterwards; the walk only screens out chains that
// are structurally doomed, so skipping them never changes search results.
bool CanShiftForward(const Workflow& w, NodeId a, NodeId stop) {
  NodeId cur = a;
  while (true) {
    std::vector<NodeId> consumers = w.Consumers(cur);
    if (consumers.size() != 1) return false;
    if (consumers[0] == stop) return true;
    if (!IsUnaryActivityNode(w, consumers[0])) return false;
    cur = consumers[0];
  }
}

// Backward twin of CanShiftForward, mirroring ShiftBackward's checks.
bool CanShiftBackward(const Workflow& w, NodeId a, NodeId stop) {
  NodeId cur = a;
  while (true) {
    std::vector<NodeId> providers = w.Providers(cur);
    if (providers.size() != 1) return false;
    if (providers[0] == stop) return true;
    if (!IsUnaryActivityNode(w, providers[0])) return false;
    cur = providers[0];
  }
}

// Moves `a` downstream via swaps until its consumer is `stop`, rewiring
// `w` directly. Meant to run inside an open surgery session so a failed
// chain rolls back whole.
Status ShiftForward(Workflow& w, NodeId a, NodeId stop) {
  while (true) {
    std::vector<NodeId> consumers = w.Consumers(a);
    if (consumers.size() != 1) {
      return Status::FailedPrecondition("shift-forward: no single consumer");
    }
    if (consumers[0] == stop) return Status::OK();
    if (!IsUnaryActivityNode(w, consumers[0])) {
      return Status::FailedPrecondition(
          "shift-forward: blocked by a non-unary node");
    }
    ETLOPT_RETURN_NOT_OK(ApplySwap(w, a, consumers[0]));
  }
}

// Moves `a` upstream via swaps until its provider is `stop` (same session
// contract as ShiftForward).
Status ShiftBackward(Workflow& w, NodeId a, NodeId stop) {
  while (true) {
    std::vector<NodeId> providers = w.Providers(a);
    if (providers.size() != 1) {
      return Status::FailedPrecondition("shift-backward: not unary");
    }
    if (providers[0] == stop) return Status::OK();
    if (!IsUnaryActivityNode(w, providers[0])) {
      return Status::FailedPrecondition(
          "shift-backward: blocked by a non-unary node");
    }
    ETLOPT_RETURN_NOT_OK(ApplySwap(w, providers[0], a));
  }
}

// One Phase II chain attempt: runs `chain` — a sequence of transitions
// applied without sessions of their own — inside a single surgery session
// on the base state's own workflow (the phase is sequential even in
// parallel runs), then refreshes and light-evaluates the result. A
// rejected chain rolls back and returns nullopt without any copy; an
// accepted one pays exactly one copy (the materialized State) before the
// base is rolled back. A refresh or evaluation failure propagates.
// Paranoid builds check every rollback against a twin of the base.
StatusOr<std::optional<State>> TryChain(
    const State& base, const std::function<Status(Workflow&)>& chain,
    const StateEvaluator& eval) {
  Workflow& wf = const_cast<Workflow&>(base.workflow);
#ifdef ETLOPT_PARANOID_CHECKS
  const Workflow twin = wf;
#endif
  auto rollback = [&] {
    wf.RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
    eval.ParanoidCheckRestore(wf, twin, base.signature_hash, base.cost);
#endif
  };
  Workflow::UndoLog log;
  wf.BeginSurgery(&log);
  Status applied = chain(wf);
  if (!applied.ok()) {
    rollback();
    return std::optional<State>();
  }
  Status refreshed = wf.Refresh();
  if (!refreshed.ok()) {
    rollback();
    return refreshed;  // transitions guarantee validity: a real error
  }
  auto ne = eval.EvalNeighbor(wf, base);
  if (!ne.ok()) {
    rollback();
    return ne.status();
  }
  State st = eval.MaterializeState(wf, ne.value());
  rollback();
  return std::optional<State>(std::move(st));
}

// Adjacent pairs (u, d) with both endpoints inside `group`.
std::vector<std::pair<NodeId, NodeId>> AdjacentPairsInGroup(
    const Workflow& w, const std::set<NodeId>& group) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u : group) {
    if (!w.Exists(u)) continue;
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() == 1 && group.count(consumers[0])) {
      out.push_back({u, consumers[0]});
    }
  }
  return out;
}

// The in-group swap transitions of `w` as candidates (records unused —
// group sweeps do not trace lineage).
std::vector<Candidate> SwapCandidatesInGroup(const Workflow& w,
                                             const std::set<NodeId>& group) {
  std::vector<Candidate> out;
  for (const auto& [u, d] : AdjacentPairsInGroup(w, group)) {
    NodeId uu = u, dd = d;
    out.push_back({[uu, dd](Workflow& s, Workflow::UndoLog* log) {
                     return ApplySwap(s, uu, dd, log);
                   },
                   TransitionRecord{}});
  }
  return out;
}

// Serial zero-copy hill-climb over one group's swaps. Candidates are
// applied to and rolled back off the base workflow itself until the first
// round with a winner; from then on the sweep borrows a single scratch
// slot, and the winning swap of each round is re-applied and *committed*,
// advancing the slot toward the local optimum without any intermediate
// materialization. Copy cost of a whole sweep: zero when nothing improves
// (the common case for Phase IV re-sweeps), otherwise one sync if the
// slot was cold plus a move — not a copy — for the final state.
//
// Decision-for-decision identical to the parallel hill-climb in
// OptimizeGroupSwaps: same candidate order, same eval values, same budget
// accounting, same strict-< first-winner tie-break.
StatusOr<StateRef> HillClimbSerial(StateRef start,
                                   const std::set<NodeId>& group,
                                   const StateEvaluator& eval,
                                   NeighborScratch* scratch, Budget* budget) {
  // The climb moves onto a scratch copy only at the first committed
  // winner, because committing must not alter `start`.
  size_t slot = 0;
  bool have_slot = false;
  Workflow* sweep = const_cast<Workflow*>(&start->workflow);
  Workflow::UndoLog direct_log;
  Workflow::UndoLog* log = &direct_log;
  // EvalNeighbor reads only the breakdown of its base; the sweep workflow
  // itself plays the role of base.workflow.
  State light;
  light.cost = start->cost;
  light.signature_hash = start->signature_hash;
  light.breakdown = start->breakdown;
#ifdef ETLOPT_PARANOID_CHECKS
  // Byte-compare target for every rollback.
  Workflow twin = *sweep;
#endif
  bool any_commit = false;
  bool improved = true;
  while (improved && !budget->Exhausted()) {
    improved = false;
    const auto pairs = AdjacentPairsInGroup(*sweep, group);
    double best_cost = light.cost;
    size_t best_i = pairs.size();
    NeighborEval best_ne;
    for (size_t i = 0; i < pairs.size(); ++i) {
      Status applied =
          ApplySwap(*sweep, pairs[i].first, pairs[i].second, log);
      if (!applied.ok()) continue;  // illegal transition: prune
      auto ne = eval.EvalNeighbor(*sweep, light);
      sweep->RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(sweep->DebugEquals(twin));
      ETLOPT_CHECK(sweep->SignatureHash() == light.signature_hash);
#endif
      if (!ne.ok()) return ne.status();
      ++budget->visited;
      if (ne.value().cost < best_cost) {
        best_cost = ne.value().cost;
        best_i = i;
        best_ne = std::move(ne).value();
        improved = true;
      }
    }
    budget->generated += pairs.size();
    if (improved) {
      if (!have_slot) {
        // First winner: move the climb onto a scratch copy equal to the
        // current sweep state (`start` itself, still unmutated).
        slot = scratch->AcquireSynced(start->workflow, start->signature_hash);
        have_slot = true;
        sweep = &scratch->workflow(slot);
        log = &scratch->log(slot);
      }
      // Advance the sweep: re-apply the winner and keep it.
      ETLOPT_RETURN_NOT_OK(
          ApplySwap(*sweep, pairs[best_i].first, pairs[best_i].second, log));
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(sweep->SignatureHash() == best_ne.signature_hash);
#endif
      sweep->CommitSurgery();
      sweep->ClearDirtyNodes();
      // No durable twin exists for the advanced sweep state; the nullptr
      // key keeps the slot private to this climb.
      scratch->Rekey(slot, nullptr, best_ne.signature_hash);
      light.cost = best_ne.cost;
      light.signature_hash = best_ne.signature_hash;
      light.breakdown = best_ne.breakdown;
      any_commit = true;
#ifdef ETLOPT_PARANOID_CHECKS
      twin = *sweep;
#endif
    }
  }
  if (!any_commit) return start;  // nothing mutated; no slot consumed
  NeighborEval fin;
  fin.cost = light.cost;
  fin.signature_hash = light.signature_hash;
  fin.breakdown = light.breakdown;
  scratch->Invalidate(slot);
  return ShareState(eval.MaterializeState(std::move(*sweep), fin));
}

// Phase I / IV inner loop: optimizes the order of one local group's
// activities by swaps only.
//
// HS explores every reachable ordering of the group (bounded BFS,
// Heuristic 4's divide-and-conquer); HS-Greedy hill-climbs, accepting only
// cost-improving swaps (§4.2's greedy variant). Candidate swaps of each
// step are evaluated in parallel; acceptance runs sequentially in
// candidate order, so the sweep is deterministic across thread counts.
StatusOr<StateRef> OptimizeGroupSwaps(StateRef start,
                                      const std::vector<NodeId>& group_nodes,
                                      const StateEvaluator& eval,
                                      ThreadPool* pool,
                                      SignatureInterner* interner,
                                      NeighborScratch* scratch, bool greedy,
                                      const SearchOptions& options,
                                      Budget* budget) {
  std::set<NodeId> group(group_nodes.begin(), group_nodes.end());
  // Hill-climb: repeatedly apply the best cost-improving swap. Only the
  // winner of each step is materialized; the losing neighbors never leave
  // the scratch. Serial runs take the in-place sweep; parallel runs fan
  // the candidates out over the pool — both make identical decisions.
  auto hill_climb = [&](StateRef current) -> StatusOr<StateRef> {
    if (pool == nullptr) {
      return HillClimbSerial(std::move(current), group, eval, scratch,
                             budget);
    }
    bool improved = true;
    while (improved && !budget->Exhausted()) {
      improved = false;
      std::vector<Candidate> candidates =
          SwapCandidatesInGroup(current->workflow, group);
      ETLOPT_ASSIGN_OR_RETURN(
          auto outcomes, EvalCandidates(current->workflow, *current,
                                        candidates, eval, pool, scratch));
      budget->generated += candidates.size();
      double best_cost = current->cost;
      size_t best_i = candidates.size();
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].alive) continue;
        ++budget->visited;
        if (outcomes[i].cost < best_cost) {
          best_cost = outcomes[i].cost;
          best_i = i;
          improved = true;
        }
      }
      if (improved) {
        ETLOPT_ASSIGN_OR_RETURN(
            State next, MaterializeOutcome(*current, candidates[best_i],
                                           outcomes[best_i], eval, scratch));
        current = ShareState(std::move(next));
      }
    }
    return current;
  };
  if (greedy) return hill_climb(std::move(start));
  // HS: seed the bounded BFS with the hill-climbed ordering so the sweep
  // is never worse than the greedy one, then explore around it.
  ETLOPT_ASSIGN_OR_RETURN(StateRef best, hill_climb(start));
  // Light BFS: a queue entry is (root, swap path) plus the figures the
  // candidate evaluation already computed — enqueueing a state costs no
  // workflow copy at all. A popped entry is reconstructed by replaying
  // its path on a cached copy of its root inside a surgery session;
  // candidates are evaluated against the reconstruction (nested
  // sessions on the serial path), and the outer rollback returns the
  // cache to its root. Only the overall winner is materialized, once,
  // at the end.
  //
  // Replay is deterministic: in-group swaps never create or destroy
  // nodes, so node ids are stable along any path, and re-applying the
  // same swaps to a byte-identical root reproduces the evaluated state
  // bit for bit. Decisions (candidate order, seen-set inserts, budget
  // accounting, strict-< best tracking) are those of a plain BFS over
  // materialized states.
  struct Entry {
    StateRef root;
    std::vector<std::pair<NodeId, NodeId>> path;
    double cost = 0.0;
    uint64_t hash = 0;
    std::shared_ptr<const CostBreakdown> breakdown;
  };
  std::deque<Entry> queue;
  queue.push_back(
      Entry{best, {}, best->cost, best->signature_hash, best->breakdown});
  queue.push_back(
      Entry{start, {}, start->cost, start->signature_hash,
            start->breakdown});
  std::set<uint64_t> seen{interner->Intern(*best), interner->Intern(*start)};
  // One replay cache per seed root; a rolled-back cache equals its root,
  // so alternating between the two costs no re-copy.
  struct RootCache {
    Workflow wf;
    uint64_t hash = 0;
    bool valid = false;
  };
  RootCache roots[2];
  Workflow::UndoLog path_log;
  double best_cost = best->cost;
  std::optional<Entry> winner;
  while (!queue.empty() && seen.size() < options.max_states_per_group &&
         !budget->Exhausted()) {
    Entry cur = std::move(queue.front());
    queue.pop_front();
    const Workflow* base_wf = &cur.root->workflow;
    Workflow* replayed = nullptr;
    if (!cur.path.empty()) {
      RootCache* rc = nullptr;
      for (RootCache& r : roots) {
        if (r.valid && r.hash == cur.root->signature_hash) rc = &r;
      }
      if (rc == nullptr) {
        rc = !roots[0].valid ? &roots[0] : &roots[1];
        rc->wf = cur.root->workflow;
        rc->hash = cur.root->signature_hash;
        rc->valid = true;
      }
      replayed = &rc->wf;
      replayed->BeginSurgery(&path_log);
      Status step = Status::OK();
      for (const auto& [u, d] : cur.path) {
        step = ApplySwap(*replayed, u, d);
        if (!step.ok()) break;
      }
      if (step.ok()) step = replayed->Refresh();
      if (!step.ok()) {
        replayed->RollbackSurgery();
        return step;  // replay of accepted swaps: a real error
      }
      // The entry's breakdown is current for the reconstruction, so the
      // dirty set restarts empty — candidate evaluations delta-recost
      // only their own swap. Rollback restores the root's (empty) set.
      replayed->ClearDirtyNodes();
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(replayed->SignatureHash() == cur.hash);
#endif
      base_wf = replayed;
    }
    State light;
    light.cost = cur.cost;
    light.signature_hash = cur.hash;
    light.breakdown = cur.breakdown;
    const auto pairs = AdjacentPairsInGroup(*base_wf, group);
    std::vector<Candidate> candidates =
        SwapCandidatesInGroup(*base_wf, group);
    // A replayed reconstruction lives in a function-local cache whose
    // address recurs across calls, so it is an ephemeral base for the
    // scratch slots; an unreplayed root is the durable State itself.
    auto outcomes = EvalCandidates(*base_wf, light, candidates, eval, pool,
                                   scratch,
                                   /*ephemeral_base=*/replayed != nullptr);
    if (!outcomes.ok()) {
      if (replayed != nullptr) replayed->RollbackSurgery();
      return outcomes.status();
    }
    budget->generated += candidates.size();
    for (size_t i = 0; i < outcomes.value().size(); ++i) {
      CandidateOutcome& o = outcomes.value()[i];
      if (!o.alive) continue;
      if (!seen.insert(interner->Intern(o.signature_hash, o.paranoid_sig))
               .second) {
        continue;
      }
      ++budget->visited;
      Entry child;
      child.root = cur.root;
      child.path = cur.path;
      child.path.push_back(pairs[i]);
      child.cost = o.cost;
      child.hash = o.signature_hash;
      child.breakdown = std::move(o.breakdown);
      if (child.cost < best_cost) {
        best_cost = child.cost;
        winner = child;
      }
      queue.push_back(std::move(child));
    }
    if (replayed != nullptr) {
      replayed->RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(replayed->SignatureHash() == cur.root->signature_hash);
#endif
    }
  }
  if (!winner.has_value()) return best;
  // Materialize the winner: the single copy the whole BFS pays.
  Workflow wf = winner->root->workflow;
  for (const auto& [u, d] : winner->path) {
    ETLOPT_RETURN_NOT_OK(ApplySwap(wf, u, d));
  }
  ETLOPT_RETURN_NOT_OK(wf.Refresh());
#ifdef ETLOPT_PARANOID_CHECKS
  ETLOPT_CHECK(wf.SignatureHash() == winner->hash);
#endif
  NeighborEval ne;
  ne.cost = winner->cost;
  ne.signature_hash = winner->hash;
  ne.breakdown = std::move(winner->breakdown);
  return ShareState(eval.MaterializeState(std::move(wf), ne));
}

// Splits every multi-member chain back into singleton nodes (the final
// SPL applications of Fig. 7, line 36).
StatusOr<Workflow> SplitAllMergedNodes(Workflow w) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : w.ActivityNodeIds()) {
      if (w.chain(id).size() > 1) {
        ETLOPT_RETURN_NOT_OK(w.SplitNode(id, 1).status());
        changed = true;
        break;
      }
    }
  }
  ETLOPT_RETURN_NOT_OK(w.Refresh());
  return w;
}

// Finds the activity node whose chain has exactly one member labelled
// `label`.
StatusOr<NodeId> FindNodeByActivityLabel(const Workflow& w,
                                         const std::string& label) {
  NodeId found = kInvalidNode;
  for (NodeId id : w.ActivityNodeIds()) {
    for (const auto& m : w.chain(id).members()) {
      if (m.activity.label() == label) {
        if (found != kInvalidNode) {
          return Status::FailedPrecondition("ambiguous activity label: " +
                                            label);
        }
        found = id;
      }
    }
  }
  if (found == kInvalidNode) {
    return Status::NotFound("no activity labelled: " + label);
  }
  return found;
}

// Resolves num_threads (0 = hardware default) and builds a pool when the
// run is actually parallel.
std::unique_ptr<ThreadPool> MakePool(const SearchOptions& options,
                                     size_t* threads_out) {
  size_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                            : options.num_threads;
  *threads_out = threads;
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

StatusOr<SearchResult> RunHeuristic(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints, bool greedy) {
  ETLOPT_RETURN_NOT_OK(ValidateSearchOptions(options));
  Budget budget(options);
  StateEvaluator eval(model, options.cache_hint, options.reliability);
  SignatureInterner interner;
  size_t threads = 1;
  std::unique_ptr<ThreadPool> pool = MakePool(options, &threads);
  NeighborScratch scratch(threads);
  const size_t copies0 = Workflow::TotalCopies();
  const size_t undos0 = Workflow::TotalUndos();
  Workflow w0 = initial;
  if (!w0.fresh()) {
    ETLOPT_RETURN_NOT_OK(w0.Refresh());
  }
  // Pre-processing (Fig. 7, ln 4): apply merge constraints.
  for (const auto& mc : merge_constraints) {
    ETLOPT_ASSIGN_OR_RETURN(NodeId a1,
                            FindNodeByActivityLabel(w0, mc.first_label));
    ETLOPT_ASSIGN_OR_RETURN(NodeId a2,
                            FindNodeByActivityLabel(w0, mc.second_label));
    ETLOPT_RETURN_NOT_OK(ApplyMerge(w0, a1, a2));
  }
  ETLOPT_ASSIGN_OR_RETURN(State s0v, eval.Eval(std::move(w0)));
  StateRef s0 = ShareState(std::move(s0v));
  ++budget.visited;
  SearchResult result;
  result.initial_cost = s0->cost;
  StateRef smin = s0;

  // Fig. 7, ln 6-8: homologous (H), distributable (D), local groups (L).
  std::vector<HomologousPair> homologous = FindHomologousPairs(s0->workflow);
  std::vector<DistributableActivity> distributable =
      FindDistributable(s0->workflow);
  std::vector<LocalGroup> groups = FindLocalGroups(s0->workflow);

  // Phase I (ln 9-13): swap optimization inside each local group.
  StateRef cur = s0;
  if (options.enable_phase1_sweep) {
    for (const auto& g : groups) {
      if (budget.Exhausted()) break;
      ETLOPT_ASSIGN_OR_RETURN(
          cur, OptimizeGroupSwaps(cur, g.nodes, eval, pool.get(), &interner,
                                  &scratch, greedy, options, &budget));
    }
  }
  if (cur->cost < smin->cost) smin = cur;

  // `visited` list of distinct promising states (ln 14), keyed by
  // signature hash.
  std::map<uint64_t, StateRef> visited;
  visited.emplace(interner.Intern(*smin), smin);

  // Phase II (ln 15-20): factorize homologous pairs that can be shifted
  // forward to their binary. A successful factorization can expose a new
  // homologous pair one level up a union tree (the shared clone and its
  // counterpart on the sibling flow), so each seed pair cascades to a
  // fixpoint. The shift/factorize chains are data-dependent, so this phase
  // stays sequential; each chain delta-recosts against the state it was
  // derived from.
  //
  // One attempt shifts both activities forward to their binary and
  // factorizes, as one surgery session on `base` (a rejected chain rolls
  // back without ever copying, and a structurally doomed first shift is
  // screened out before the session even opens).
  auto factorize = [&](const State& base, const HomologousPair& p)
      -> StatusOr<std::optional<State>> {
    ++budget.generated;
    if (!CanShiftForward(base.workflow, p.a1, p.binary)) {
      return std::optional<State>();
    }
    return TryChain(
        base,
        [&](Workflow& wf) {
          ETLOPT_RETURN_NOT_OK(ShiftForward(wf, p.a1, p.binary));
          ETLOPT_RETURN_NOT_OK(ShiftForward(wf, p.a2, p.binary));
          return ApplyFactorize(wf, p.binary, p.a1, p.a2);
        },
        eval);
  };
  for (const auto& h : homologous) {
    if (!options.enable_factorize) break;
    if (budget.Exhausted()) break;
    const Workflow& base = smin->workflow;
    if (!base.Exists(h.a1) || !base.Exists(h.a2) || !base.Exists(h.binary))
      continue;
    std::string semantics = base.chain(h.a1).SemanticsString();
    ETLOPT_ASSIGN_OR_RETURN(std::optional<State> got, factorize(*smin, h));
    if (!got.has_value()) continue;
    StateRef st = ShareState(std::move(*got));
    ++budget.visited;
    // Cascade: keep factorizing pairs with the same semantics.
    bool changed = true;
    while (changed && !budget.Exhausted()) {
      changed = false;
      for (const auto& hc : FindHomologousPairs(st->workflow)) {
        if (st->workflow.chain(hc.a1).SemanticsString() != semantics) continue;
        ETLOPT_ASSIGN_OR_RETURN(std::optional<State> next,
                                factorize(*st, hc));
        if (!next.has_value()) continue;
        st = ShareState(std::move(*next));
        ++budget.visited;
        changed = true;
        break;
      }
    }
    if (st->cost < smin->cost) smin = st;
    visited.emplace(interner.Intern(*st), std::move(st));
  }

  // Phase III (ln 21-28): distribute the initial state's distributable
  // activities in every state produced so far (activities factorized in
  // Phase II have fresh node ids, so they are naturally excluded). The
  // worklist includes states Phase III itself produces, so distributions
  // of *different* activities compose (e.g. two post-union filters both
  // pushed into the flows). Sequential for the same reason as Phase II.
  std::deque<StateRef> worklist;
  std::set<uint64_t> queued;
  for (const auto& [sig, st] : visited) {
    worklist.push_back(st);
    queued.insert(sig);
  }
  while (!worklist.empty() && options.enable_distribute &&
         !budget.Exhausted()) {
    const StateRef si = std::move(worklist.front());
    worklist.pop_front();
    for (const auto& d : distributable) {
      if (budget.Exhausted()) break;
      if (!si->workflow.Exists(d.node)) continue;
      std::string plabel = si->workflow.PriorityLabelOf(d.node);
      // Distribute, then cascade the clones (identified by the carried
      // priority label) down through any further binary activities — a
      // selection above a union tree can be pushed into every leaf flow.
      // The whole cascade advances one scratch workflow. Each step is
      // its own surgery session — apply, evaluate, commit (or roll back
      // just that step) — so the only copies a cascade pays are the
      // slot sync at its start (free when the slot already mirrors
      // `si`) and one per state it actually keeps: enqueued on the
      // worklist or a new running minimum. Interior cascade depths that
      // are neither come and go without ever being materialized.
      const size_t slot =
          scratch.AcquireSynced(si->workflow, si->signature_hash);
      Workflow& wf = scratch.workflow(slot);
      Workflow::UndoLog& log = scratch.log(slot);
      State light;
      light.cost = si->cost;
      light.signature_hash = si->signature_hash;
      light.breakdown = si->breakdown;
      bool changed = true;
      while (changed && !budget.Exhausted()) {
        changed = false;
        for (const auto& dc : FindDistributable(wf)) {
          if (wf.PriorityLabelOf(dc.node) != plabel) continue;
          ++budget.generated;
          if (!CanShiftBackward(wf, dc.node, dc.binary)) continue;
          wf.BeginSurgery(&log);
          Status step = ShiftBackward(wf, dc.node, dc.binary);
          if (step.ok()) step = ApplyDistribute(wf, dc.binary, dc.node);
          if (!step.ok()) {
            wf.RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
            ETLOPT_CHECK(wf.SignatureHash() == light.signature_hash);
#endif
            continue;
          }
          Status refreshed = wf.Refresh();
          if (!refreshed.ok()) {
            wf.RollbackSurgery();
            return refreshed;  // transitions guarantee validity
          }
          auto ne = eval.EvalNeighbor(wf, light);
          if (!ne.ok()) {
            wf.RollbackSurgery();
            return ne.status();
          }
          wf.CommitSurgery();
          wf.ClearDirtyNodes();
          // Until a twin is materialized below, the advanced slot has
          // no durable source instance to be keyed on.
          scratch.Rekey(slot, nullptr, ne.value().signature_hash);
          light.cost = ne.value().cost;
          light.signature_hash = ne.value().signature_hash;
          light.breakdown = ne.value().breakdown;
          ++budget.visited;
          changed = true;
          // Every cascade depth is a candidate: pushing all the way
          // down is not always the cheapest placement. Past the
          // composition cap, keep improving states only and stop
          // re-enqueueing.
          const bool enqueue =
              queued
                  .insert(interner.Intern(ne.value().signature_hash,
                                          ne.value().signature))
                  .second &&
              visited.size() < options.max_phase3_states;
          const bool improves = light.cost < smin->cost;
          if (enqueue || improves) {
            StateRef kept =
                ShareState(eval.MaterializeState(wf, ne.value()));
            if (improves) smin = kept;
            if (enqueue) {
              visited.emplace(kept->signature_hash, kept);
              worklist.push_back(kept);
              // `kept` was copied from the slot, so the slot mirrors it
              // byte-for-byte; keying the slot to `kept` lets the
              // worklist pop of `kept` start its own cascades without a
              // re-sync. `visited` keeps the instance alive (and its
              // address stable) for the rest of the search.
              scratch.Rekey(slot, &kept->workflow, kept->signature_hash);
            }
          }
          break;
        }
      }
    }
  }

  // Phase IV (ln 29-35): re-run the swap sweeps on the visited states
  // (local groups changed after FAC/DIS). Visited states are processed in
  // ascending cost order and the sweep is limited to the most promising
  // ones — the tail of the list rarely overtakes a full sweep of the
  // leaders and re-sweeping everything dominates the runtime. Ties break
  // on signature hash so the order is deterministic.
  std::vector<StateRef> snapshot;
  snapshot.reserve(visited.size());
  for (const auto& [sig, st] : visited) snapshot.push_back(st);
  std::sort(snapshot.begin(), snapshot.end(),
            [](const StateRef& a, const StateRef& b) {
              return a->cost != b->cost
                         ? a->cost < b->cost
                         : a->signature_hash < b->signature_hash;
            });
  if (snapshot.size() > options.max_phase4_states) {
    snapshot.resize(options.max_phase4_states);
  }
  for (const StateRef& si : snapshot) {
    if (!options.enable_phase4_resweep) break;
    if (budget.Exhausted()) break;
    StateRef c = si;
    for (const auto& g : FindLocalGroups(c->workflow)) {
      if (budget.Exhausted()) break;
      ETLOPT_ASSIGN_OR_RETURN(
          c, OptimizeGroupSwaps(c, g.nodes, eval, pool.get(), &interner,
                                &scratch, greedy, options, &budget));
    }
    if (c->cost < smin->cost) smin = c;
  }

  // Post-processing (ln 36): split anything still merged.
  ETLOPT_ASSIGN_OR_RETURN(Workflow split, SplitAllMergedNodes(smin->workflow));
  ETLOPT_ASSIGN_OR_RETURN(State final_state,
                          eval.EvalFrom(std::move(split), *smin));

  result.best = std::move(final_state);
  result.best.signature = result.best.workflow.Signature();
  result.visited_states = budget.visited;
  result.elapsed_millis = budget.ElapsedMillis();
  result.exhausted = !budget.Exhausted();
  result.perf = eval.perf();
  result.perf.threads = threads;
  result.perf.workflow_copies = Workflow::TotalCopies() - copies0;
  result.perf.undo_applies = Workflow::TotalUndos() - undos0;
  ETLOPT_RETURN_NOT_OK(FinalizeRecoveryPlan(result, model, options));
  return result;
}

}  // namespace

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.max_states == 0) {
    return Status::InvalidArgument(
        "search options: max_states must be positive");
  }
  if (options.max_millis <= 0) {
    return Status::InvalidArgument(
        "search options: max_millis must be positive");
  }
  if (options.max_phase4_states == 0) {
    return Status::InvalidArgument(
        "search options: max_phase4_states must be positive");
  }
  if (options.reliability != nullptr) {
    ETLOPT_RETURN_NOT_OK(ValidateReliabilityParams(*options.reliability));
  }
  return Status::OK();
}

Status FinalizeRecoveryPlan(SearchResult& result, const CostModel& model,
                            const SearchOptions& options) {
  if (options.reliability == nullptr) {
    result.recovery = RecoveryPointPlan{};
    return Status::OK();
  }
  std::shared_ptr<const CostBreakdown> bd = result.best.breakdown;
  if (bd == nullptr) {
    ETLOPT_ASSIGN_OR_RETURN(CostBreakdown fresh,
                            ComputeCostBreakdown(result.best.workflow, model));
    bd = std::make_shared<const CostBreakdown>(std::move(fresh));
  }
  result.recovery =
      PlaceRecoveryPoints(result.best.workflow, *bd, *options.reliability);
  return Status::OK();
}

std::string ResultFingerprint(const SearchOptions& options) {
  std::string fp = StrFormat(
      "max_states=%zu,max_millis=%lld,per_group=%zu,phase3=%zu,phase4=%zu,"
      "phases=%d%d%d%d",
      options.max_states, static_cast<long long>(options.max_millis),
      options.max_states_per_group, options.max_phase3_states,
      options.max_phase4_states, options.enable_phase1_sweep ? 1 : 0,
      options.enable_factorize ? 1 : 0, options.enable_distribute ? 1 : 0,
      options.enable_phase4_resweep ? 1 : 0);
  // Appended only when hinted, so every pre-existing fingerprint (and
  // with it every serving-layer plan-cache key) is byte-stable.
  if (options.cache_hint != nullptr) {
    fp += StrFormat(",cache_snapshot=%llu,cache_residual=%.17g",
                    static_cast<unsigned long long>(
                        options.cache_hint->snapshot_id),
                    options.cache_hint->residual);
  }
  if (options.reliability != nullptr) {
    fp += ",reliability=" + ReliabilityFingerprint(*options.reliability);
  }
  return fp;
}

std::string_view SearchAlgorithmToString(SearchAlgorithm algorithm) {
  switch (algorithm) {
    case SearchAlgorithm::kExhaustive: return "es";
    case SearchAlgorithm::kHeuristic: return "hs";
    case SearchAlgorithm::kHeuristicGreedy: return "hsg";
  }
  return "hs";
}

StatusOr<SearchAlgorithm> SearchAlgorithmFromString(std::string_view name) {
  if (name == "es") return SearchAlgorithm::kExhaustive;
  if (name == "hs") return SearchAlgorithm::kHeuristic;
  if (name == "hsg") return SearchAlgorithm::kHeuristicGreedy;
  return Status::InvalidArgument("unknown search algorithm: " +
                                 std::string(name));
}

StatusOr<SearchResult> RunSearch(
    SearchAlgorithm algorithm, const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  switch (algorithm) {
    case SearchAlgorithm::kExhaustive:
      return ExhaustiveSearch(initial, model, options);
    case SearchAlgorithm::kHeuristic:
      return HeuristicSearch(initial, model, options, merge_constraints);
    case SearchAlgorithm::kHeuristicGreedy:
      return HeuristicSearchGreedy(initial, model, options, merge_constraints);
  }
  return Status::InvalidArgument("unknown search algorithm");
}

StatusOr<State> MakeState(Workflow workflow, const CostModel& model) {
  if (!workflow.fresh()) {
    ETLOPT_RETURN_NOT_OK(workflow.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd,
                          ComputeCostBreakdown(workflow, model));
  State s;
  s.cost = bd.total;
  s.signature_hash = workflow.SignatureHash();
  s.signature = workflow.Signature();
  s.breakdown = std::make_shared<const CostBreakdown>(std::move(bd));
  workflow.ClearDirtyNodes();
  s.workflow = std::move(workflow);
  return s;
}

StatusOr<std::vector<std::pair<State, TransitionRecord>>> EnumerateSuccessors(
    const State& state, const CostModel& model) {
  std::vector<Candidate> candidates =
      CollectSuccessorCandidates(state.workflow);
  std::vector<std::pair<State, TransitionRecord>> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    Workflow next = state.workflow;
    if (!c.apply(next, nullptr).ok()) continue;
    ETLOPT_ASSIGN_OR_RETURN(State st, MakeState(std::move(next), model));
    out.emplace_back(std::move(st), c.rec);
  }
  return out;
}

StatusOr<SearchResult> ExhaustiveSearch(const Workflow& initial,
                                        const CostModel& model,
                                        const SearchOptions& options) {
  ETLOPT_RETURN_NOT_OK(ValidateSearchOptions(options));
  Budget budget(options);
  StateEvaluator eval(model, options.cache_hint, options.reliability);
  SignatureInterner interner;
  size_t threads = 1;
  std::unique_ptr<ThreadPool> pool = MakePool(options, &threads);
  NeighborScratch scratch(threads);
  const size_t copies0 = Workflow::TotalCopies();
  const size_t undos0 = Workflow::TotalUndos();
  Workflow w0 = initial;
  if (!w0.fresh()) {
    ETLOPT_RETURN_NOT_OK(w0.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(State s0v, eval.Eval(std::move(w0)));
  StateRef s0 = ShareState(std::move(s0v));
  SearchResult result;
  result.initial_cost = s0->cost;
  StateRef best = s0;

  // Lineage: state hash -> (parent hash, producing transition), for
  // reconstructing the rewrite path of the optimum.
  std::map<uint64_t, std::pair<uint64_t, TransitionRecord>> parent;
  const uint64_t initial_hash = interner.Intern(*s0);
  std::set<uint64_t> visited{initial_hash};
  std::deque<StateRef> queue;
  queue.push_back(std::move(s0));
  ++budget.visited;
  bool complete = true;
  while (!queue.empty()) {
    if (budget.Exhausted()) {
      complete = false;
      break;
    }
    StateRef cur = std::move(queue.front());
    queue.pop_front();
    // The whole frontier of `cur` is evaluated (in parallel when a pool is
    // set); dedup against `visited` and winner selection stay sequential
    // in candidate order, matching the serial algorithm state for state.
    std::vector<Candidate> candidates =
        CollectSuccessorCandidates(cur->workflow);
    ETLOPT_ASSIGN_OR_RETURN(
        auto outcomes, EvalCandidates(cur->workflow, *cur, candidates, eval,
                                      pool.get(), &scratch));
    budget.generated += candidates.size();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      CandidateOutcome& o = outcomes[i];
      if (!o.alive) continue;
      if (!visited.insert(interner.Intern(o.signature_hash, o.paranoid_sig))
               .second) {
        continue;
      }
      ETLOPT_ASSIGN_OR_RETURN(
          State st, MaterializeOutcome(*cur, candidates[i], o, eval, &scratch));
      StateRef sp = ShareState(std::move(st));
      parent.emplace(sp->signature_hash,
                     std::make_pair(cur->signature_hash, candidates[i].rec));
      ++budget.visited;
      if (sp->cost < best->cost) best = sp;
      queue.push_back(std::move(sp));
      if (budget.Exhausted()) {
        complete = false;
        break;
      }
    }
  }
  // Walk the lineage back from the optimum to the initial state.
  uint64_t sig = best->signature_hash;
  while (sig != initial_hash) {
    auto it = parent.find(sig);
    ETLOPT_CHECK(it != parent.end());
    result.best_path.push_back(it->second.second);
    sig = it->second.first;
  }
  std::reverse(result.best_path.begin(), result.best_path.end());
  result.best = *best;
  result.best.signature = result.best.workflow.Signature();
  result.visited_states = budget.visited;
  result.elapsed_millis = budget.ElapsedMillis();
  result.exhausted = complete;
  result.perf = eval.perf();
  result.perf.threads = threads;
  result.perf.workflow_copies = Workflow::TotalCopies() - copies0;
  result.perf.undo_applies = Workflow::TotalUndos() - undos0;
  ETLOPT_RETURN_NOT_OK(FinalizeRecoveryPlan(result, model, options));
  return result;
}

StatusOr<SearchResult> HeuristicSearch(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  return RunHeuristic(initial, model, options, merge_constraints,
                      /*greedy=*/false);
}

StatusOr<SearchResult> HeuristicSearchGreedy(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  return RunHeuristic(initial, model, options, merge_constraints,
                      /*greedy=*/true);
}

}  // namespace etlopt
