// The five state transitions of the paper (§2.2, §3.3): Swap, Factorize,
// Distribute, Merge, Split.
//
// Each transition is one function that rewires a workflow in place: it
// checks the transition's applicability conditions on the unmodified
// workflow, performs the surgery, and revalidates with Refresh(). A
// non-OK status means "transition not applicable here" — the search
// layers treat that as pruning, not as an error.
//
// The caller owns the surgery session (Workflow::BeginSurgery). It picks
// one of two forms through the optional `session` log:
//  * with a log, the transition opens a new session on it once the
//    precheck has passed. On success the session is left OPEN: the caller
//    inspects the neighbor (hash it, delta-cost it, copy it if it
//    survives pruning) and then calls RollbackSurgery() to restore the
//    workflow byte-identically, or CommitSurgery() to keep it. On failure
//    the session is already rolled back. A rejected precheck opens no
//    session at all.
//  * without a log, `w` is rewired directly. This is for transition
//    chains run inside one session the caller opened itself, and for
//    workflows the caller discards on failure: a rejected transition may
//    leave `w` partially rewired.
// A copying transition is "clone, then apply".
//
// Correctness (the paper's Theorems 1-2) is enforced in two layers:
//  1. structural/semantic preconditions checked up front (conditions 1-4
//     of §3.3, plus the distributivity rules for FAC/DIS);
//  2. full schema regeneration via Workflow::Refresh() on the rewired
//     workflow — any state whose schemata no longer line up is rejected.

#ifndef ETLOPT_OPTIMIZER_TRANSITIONS_H_
#define ETLOPT_OPTIMIZER_TRANSITIONS_H_

#include "graph/workflow.h"

namespace etlopt {

/// SWA(a1, a2): interchange two adjacent unary activities (a1 provider of
/// a2). Conditions (paper §3.3):
///  1-2. adjacency; both unary with single input/output and one consumer;
///  3-4. functionality and input schemata remain covered after the swap —
///       checked both via the value-changed/functionality dependency test
///       (neither activity may read or re-change what the other computes)
///       and via full schema regeneration.
Status ApplySwap(Workflow& w, NodeId a1, NodeId a2,
                 Workflow::UndoLog* session = nullptr);

/// FAC(ab, a1, a2): replace homologous activities a1, a2 (each adjacent
/// providers of binary ab through different ports) with a single clone
/// placed right after ab.
Status ApplyFactorize(Workflow& w, NodeId ab, NodeId a1, NodeId a2,
                      Workflow::UndoLog* session = nullptr);

/// DIS(ab, a): remove a (the direct consumer of binary ab) and clone it
/// into each flow entering ab.
Status ApplyDistribute(Workflow& w, NodeId ab, NodeId a,
                       Workflow::UndoLog* session = nullptr);

/// MER(a1+2, a1, a2): package a2 (a1's only consumer) into a1's node.
Status ApplyMerge(Workflow& w, NodeId a1, NodeId a2,
                  Workflow::UndoLog* session = nullptr);

/// SPL(a1+2, a1, a2): unpackage a merged node at member position `at`.
Status ApplySplit(Workflow& w, NodeId a, size_t at,
                  Workflow::UndoLog* session = nullptr);

/// The shared FAC/DIS legality rule: can `chain` be moved across binary
/// activity `binary` (in either direction) without changing semantics?
///  * UNION: any per-row activity (filters, projection, function, SK);
///    PK-check and aggregation do not distribute (rows from different
///    flows interact);
///  * DIFFERENCE / INTERSECTION: pure filters only (projections and
///    functions can merge distinct rows and change bag semantics);
///  * JOIN: filters whose functionality is covered by the join keys.
Status CheckDistributesOverBinary(const ActivityChain& chain,
                                  const ActivityChain& binary);

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_TRANSITIONS_H_
