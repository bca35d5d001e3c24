// Workflow: a directed acyclic graph of activities and recordsets
// (paper §2.1). States of the optimizer's search space *are* workflows,
// so Workflow is a value type: transitions rewire it *in place* — on the
// search hot path under an UndoLog, rolling the surgery back once the
// neighbor has been hashed and costed (see BeginSurgery below) — and
// revalidate the result via Refresh(). A kept neighbor is a copy.
//
// Representation notes: nodes and the computed-schema table are dense
// NodeId-indexed vectors (ids are small and monotonically assigned), and
// computed schemata are interned via SchemaInterner — the per-node entry
// is a pointer into process-wide shared storage. Copying a Workflow is
// therefore a handful of flat vector copies, and snapshotting it into an
// UndoLog is cheaper still.
//
// Invariants enforced by Refresh():
//  * the graph is acyclic;
//  * every activity node has exactly input_arity() providers (one per
//    input port) and exactly one consumer (the paper's setting for the
//    correctness theorems);
//  * schema propagation succeeds: every chain's functionality schema is
//    covered by its input, and every non-source recordset receives a
//    schema equivalent to its declared one.

#ifndef ETLOPT_GRAPH_WORKFLOW_H_
#define ETLOPT_GRAPH_WORKFLOW_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/activity_chain.h"
#include "schema/schema.h"

namespace etlopt {

/// Node identifier, unique within one workflow (and its descendants —
/// copies made by transitions keep ids stable, new nodes get fresh ids).
using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// A recordset as it appears in a workflow: name, declared schema, and the
/// estimated cardinality used by cost models (meaningful for sources).
struct RecordSetDef {
  std::string name;
  Schema schema;
  double cardinality = 0.0;
};

/// A provider edge: data flows from `from` into input port `port` of `to`.
struct WorkflowEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  int port = 0;

  friend bool operator==(const WorkflowEdge& a, const WorkflowEdge& b) {
    return a.from == b.from && a.to == b.to && a.port == b.port;
  }
};

class Workflow {
 private:
  struct Node {
    bool present = false;
    bool is_activity = false;
    std::optional<ActivityChain> chain;     // engaged iff activity
    std::optional<RecordSetDef> recordset;  // engaged iff recordset
    std::string plabel;                     // recordsets only
  };

 public:
  /// Captures everything one surgery session (BeginSurgery ..
  /// RollbackSurgery) needs to restore the workflow byte-identically:
  /// flat snapshots of the cheap tables (edges, topo order, interned
  /// schema pointers, dirty set, scalars) plus first-touch copies of the
  /// few nodes the surgery modifies or removes. Reusable across sessions
  /// — Begin clears and refills it, so one log serves a whole search
  /// without reallocating.
  class UndoLog {
   public:
    UndoLog() = default;
    UndoLog(const UndoLog&) = delete;
    UndoLog& operator=(const UndoLog&) = delete;

    /// True between BeginSurgery and Rollback/CommitSurgery.
    bool active() const { return active_; }

   private:
    friend class Workflow;
    bool active_ = false;
    std::vector<WorkflowEdge> edges_;
    std::vector<NodeId> topo_;
    std::vector<const Schema*> out_schema_;
    std::vector<NodeId> dirty_nodes_;
    std::vector<std::pair<NodeId, Node>> saved_nodes_;
    NodeId next_id_ = 0;
    bool finalized_ = false;
    bool fresh_ = false;
  };

  Workflow() = default;

  /// Copies are counted (TotalCopies) so the search layer can prove its
  /// zero-copy neighbor generation actually avoids them. The copy never
  /// inherits an active surgery session.
  Workflow(const Workflow& other);
  Workflow& operator=(const Workflow& other);
  Workflow(Workflow&&) = default;
  Workflow& operator=(Workflow&&) = default;

  // --- Construction ---

  /// Adds a recordset node (source, staging, or target — determined by how
  /// it is wired).
  NodeId AddRecordSet(RecordSetDef def);

  /// Adds an activity node and connects `providers` to its input ports in
  /// order.
  StatusOr<NodeId> AddActivity(Activity activity,
                               const std::vector<NodeId>& providers);

  /// Adds an explicit edge (used to wire targets: Connect(act, target_rs)).
  Status Connect(NodeId from, NodeId to, int port = 0);

  /// Assigns execution-priority labels from the topological order of the
  /// *initial* graph (paper §4.1) and validates via Refresh(). Call once
  /// after construction; transitions preserve the labels thereafter.
  Status Finalize();

  // --- Node access ---

  bool Exists(NodeId id) const {
    return id > 0 && static_cast<size_t>(id) < nodes_.size() &&
           nodes_[id].present;
  }
  bool IsActivity(NodeId id) const;
  bool IsRecordSet(NodeId id) const;

  const ActivityChain& chain(NodeId id) const;
  ActivityChain* mutable_chain(NodeId id);
  const RecordSetDef& recordset(NodeId id) const;

  /// Priority label of a node: a recordset's own label, or the chain's
  /// joined member labels.
  std::string PriorityLabelOf(NodeId id) const;

  /// Overrides a node's priority label (single-member chains and
  /// recordsets only). Finalize() derives labels from the *initial*
  /// topology and transitions carry them unchanged, so a deserialized
  /// mid-optimization workflow must restore its recorded labels rather
  /// than re-derive them; this is that hook. Invalidates freshness for
  /// activity nodes — callers Refresh() afterwards.
  Status SetPriorityLabel(NodeId id, const std::string& plabel);

  /// Rough in-memory footprint in bytes (nodes, chains, declared schemas,
  /// edges, dense tables), for cache byte budgeting. Computed schemata are
  /// interned in process-wide shared storage, so they are charged at
  /// pointer size here — the shared payload lives in SchemaInterner, once
  /// per distinct schema, not per state. Deterministic for equal
  /// workflows.
  size_t ApproxMemoryBytes() const;

  /// All node ids, ascending.
  std::vector<NodeId> NodeIds() const;
  /// Activity node ids, ascending.
  std::vector<NodeId> ActivityNodeIds() const;
  /// Total number of activities (chain members summed).
  size_t ActivityCount() const;

  /// Providers of `id`, ordered by input port.
  std::vector<NodeId> Providers(NodeId id) const;
  /// Consumers of `id`, ascending by node id.
  std::vector<NodeId> Consumers(NodeId id) const;
  const std::vector<WorkflowEdge>& edges() const { return edges_; }

  /// Source recordsets (no providers) / target recordsets (no consumers).
  std::vector<NodeId> SourceRecordSets() const;
  std::vector<NodeId> TargetRecordSets() const;

  // --- Validation and schema propagation ---

  /// Revalidates the graph and recomputes every node's output schema (the
  /// automatic schema regeneration of §3.2), interning each into the
  /// process-wide SchemaInterner. Must be called after any surgery before
  /// reading schemas; transitions use its failure as the rejection signal
  /// for illegal states (conditions 3-4 of §3.3).
  Status Refresh();

  /// True if Refresh() succeeded since the last mutation.
  bool fresh() const { return fresh_; }

  /// Computed output schema (requires fresh()). The reference points into
  /// interned shared storage and stays valid for the process lifetime.
  const Schema& OutputSchema(NodeId id) const;
  /// Computed input schemata, port-ordered (requires fresh()). Assembled
  /// on demand from the providers' output schemata — input schema i *is*
  /// provider i's output schema, so no separate table is stored.
  std::vector<Schema> InputSchemas(NodeId id) const;
  /// Topological order (requires fresh()).
  const std::vector<NodeId>& TopoOrder() const;

  // --- State identity and equivalence ---

  /// Canonical state signature (paper §4.1): the unfolding of each target
  /// node as plabel(provider-unfoldings), targets sorted, suffixed with
  /// the activity count. Equal signatures identify equal states.
  std::string Signature() const;

  /// 64-bit hash of the canonical signature structure, computed without
  /// materializing the string (the search hot path keys its visited and
  /// queued sets on this; the string form stays for reporting/DOT). Equal
  /// Signature() strings always hash equally; distinct signatures collide
  /// with probability ~2^-64 and the optimizer's SignatureInterner
  /// cross-checks hash/string consistency in debug builds.
  uint64_t SignatureHash() const;

  /// The paper's display form of the signature: linear runs joined with
  /// '.', converging branches bracketed with '//' — Fig. 1 renders as
  /// "((1.3)//(2.4.5.6)).7.8.9".
  std::string PrettySignature() const;

  /// The workflow post-condition (paper §3.4) canonicalized as the set of
  /// member predicates plus recordset predicates.
  std::set<std::string> PostConditionSet() const;

  /// Paper's equivalence: same target schemata and same post-condition.
  bool EquivalentTo(const Workflow& other) const;

  // --- Surgery (transitions build on these; callers Refresh() after) ---

  /// Swaps two adjacent nodes linked upstream -> downstream, both unary
  /// single-consumer chains. Purely structural; semantic applicability is
  /// checked by the transition layer.
  Status SwapAdjacent(NodeId upstream, NodeId downstream);

  /// Removes a unary chain node, bridging its provider to its consumers.
  Status RemoveChainNode(NodeId id);

  /// Inserts a unary chain on the edge from -> to (keeping to's port).
  StatusOr<NodeId> InsertOnEdge(ActivityChain chain, NodeId from, NodeId to);

  /// Appends `second`'s chain to `first`'s (Merge); `second` must be
  /// `first`'s only consumer and a unary chain. `second` is removed.
  Status MergeInto(NodeId first, NodeId second);

  /// Splits `id`'s chain at `at`; the tail becomes a new node placed
  /// after the head. Returns the tail's id.
  StatusOr<NodeId> SplitNode(NodeId id, size_t at);

  // --- In-place surgery sessions (the zero-copy transition path) ---
  //
  // The search layer's neighbor generation mutates ONE scratch workflow
  // per worker instead of copying the parent for every candidate:
  //
  //   Workflow::UndoLog log;
  //   scratch.BeginSurgery(&log);
  //   ... surgery + Refresh() ...          // hash and cost the neighbor
  //   scratch.RollbackSurgery();           // parent restored byte-identically
  //
  // A real copy is taken (plain copy construction, while the session is
  // still open) only for neighbors that survive the visited-set and
  // pruning checks. Rollback restores every observable and internal field
  // — node payloads, edges, topo order, interned schema pointers, dirty
  // set, id counter, freshness — exactly; debug/ETLOPT_PARANOID builds
  // assert this around every undo (see DebugEquals).

  /// Arms `log` and snapshots the state needed to roll back. Sessions
  /// nest at most one level deep: while an outer session is open, one
  /// inner session may begin (the search layer replays a transition path
  /// under an outer session, then probes candidate transitions in inner
  /// sessions), but the inner session can only be rolled back — never
  /// committed — so the outer snapshot stays sufficient. Copies never
  /// inherit a session.
  void BeginSurgery(UndoLog* log);

  /// Restores the workflow to the matching BeginSurgery state and disarms
  /// that log (the inner session first, when one is open).
  void RollbackSurgery();

  /// Disarms the log, keeping the mutations (an accepted neighbor or
  /// annealing move). Forbidden while an inner session is open: the
  /// outer log has no first-touch records for nodes the inner session
  /// modified, so committing it would leave the outer rollback unable to
  /// restore them.
  void CommitSurgery();

  bool surgery_active() const { return active_undo_ != nullptr; }

  /// Exact logical-state comparison (nodes, chains, labels, declared
  /// schemas, edges, topo order, interned schema identities, dirty set,
  /// id counter, flags). Used by the paranoid apply→undo cross-checks and
  /// the undo property tests; too strict and too slow for search-space
  /// identity — that is Signature()'s job.
  bool DebugEquals(const Workflow& other) const;

  /// Process-wide counters: full Workflow copies made / surgery sessions
  /// rolled back. The search layer snapshots deltas into SearchPerf so
  /// benches can gate the copy reduction. Monotonic, relaxed atomics.
  static size_t TotalCopies();
  static size_t TotalUndos();

  // --- Dirty-node tracking (delta-recost hook) ---
  //
  // Surgery records every node whose chain content or direct inputs it
  // touched. The cost layer seeds delta recosting from this set: a node
  // absent from it (and present in the base state with identical input
  // cardinalities) is guaranteed to cost the same as in the base, so its
  // cached figures can be reused. Copies inherit the set, so a sequence
  // of transitions derived from one base state accumulates all touched
  // nodes; the search layer clears it each time a state is (re)costed.

  /// Nodes touched by surgery since the last ClearDirtyNodes().
  const std::vector<NodeId>& dirty_nodes() const { return dirty_nodes_; }
  void ClearDirtyNodes() { dirty_nodes_.clear(); }

 private:
  NodeId NewId();
  void MarkDirty(NodeId id) { dirty_nodes_.push_back(id); }
  /// First-touch hook: saves `id`'s node into the active undo log (if
  /// any) before it is modified or removed. Nodes added during the
  /// session need no record — rollback truncates them away.
  void TouchNode(NodeId id);
  void EraseNode(NodeId id);
  const Node& GetNode(NodeId id) const;
  Node& GetNodeMutable(NodeId id);
  Status CheckStructure() const;
  StatusOr<std::vector<NodeId>> ComputeTopoOrder() const;
  std::string Unfold(NodeId id, std::map<NodeId, std::string>* memo) const;
  void Invalidate() { fresh_ = false; }

  /// Dense node table indexed by NodeId; slot 0 is unused, absent slots
  /// are tombstones of removed nodes. Invariant: nodes_.size() ==
  /// max(1, next_id_).
  std::vector<Node> nodes_ = std::vector<Node>(1);
  std::vector<WorkflowEdge> edges_;
  NodeId next_id_ = 1;
  bool finalized_ = false;
  std::vector<NodeId> dirty_nodes_;
  /// Outer and (optional) nested inner surgery session; TouchNode records
  /// into the innermost one.
  UndoLog* active_undo_ = nullptr;
  UndoLog* nested_undo_ = nullptr;

  // Computed by Refresh().
  bool fresh_ = false;
  std::vector<NodeId> topo_;
  /// NodeId-indexed interned output schemas (nullptr = no node).
  std::vector<const Schema*> out_schema_;
};

}  // namespace etlopt

#endif  // ETLOPT_GRAPH_WORKFLOW_H_
