// Node driver: the one topo-order loop every execution engine runs.
//
// The paper models a workflow as one DAG of activities and recordsets,
// and two states are equivalent when they load identical targets
// (§2.2). So engines differ only in how they compute one node's rows;
// the walk over the DAG lives here, once. DriveNodes owns:
//
//  * topo order, and skipping the nodes the NodePolicy does not need;
//  * source lookup and the source arity check;
//  * staging/target realignment and target emission;
//  * one FaultSite::kActivityExecute hit per activity-node attempt;
//  * the "executing node %d ('%s')" error context and rows_out;
//  * handing a provider's flow to its last consumer by move;
//  * the NodePolicy calls (Skip, Serve, Attempt, OnComputed, Finalize).
//
// An engine supplies a Strategy over its own flow type:
//
//   using Flow = ...;  // std::vector<Record>, or batches
//   StatusOr<Flow> Source(const Schema&, const std::vector<Record>&);
//   StatusOr<Flow> FromRows(const Schema&, std::vector<Record>);
//   StatusOr<Flow> Realign(Flow, const Schema& from, const Schema& to);
//   StatusOr<Flow> RunChain(NodeId, const ActivityChain&,
//                           const std::vector<Schema>& in_schemas,
//                           std::vector<Flow>& inputs);
//   static size_t Rows(const Flow&);
//   static std::vector<Record> ToRows(const Flow&);  // non-row flows only
//
// RunChain receives the node id; the stream executor's strategy uses it
// to find the node's incremental operator state, the others ignore it.
//
// Ownership: a flow has one owner at a time. The driver owns every
// provider's flow until its consumers take it (the last by move); a
// step owns its `inputs`, and RunChain and Realign consume them: every
// strategy moves and edits those rows instead of copying them. A step
// that failed after consuming its inputs cannot be re-run, so a policy
// that re-runs failed steps (the recoverable executor's retry) relies on
// one rule: the only retryable failure inside a step, the
// FaultSite::kActivityExecute hit, fires before anything consumes the
// inputs. The built-in kernels fail only with non-retryable codes, and a
// realign only on a missing attribute. Should a retryable failure come
// later (a registered scalar function returning Unavailable), the re-run
// fails with Internal rather than run on moved-from rows.

#ifndef ETLOPT_ENGINE_NODE_DRIVER_H_
#define ETLOPT_ENGINE_NODE_DRIVER_H_

#include <functional>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/executor.h"
#include "fault/fault_injector.h"

namespace etlopt {

/// Substitutes for the engine at chosen nodes. The defaults compute every
/// node once: the plain engine run.
class NodePolicy {
 public:
  NodePolicy() = default;
  NodePolicy(const NodePolicy&) = delete;
  NodePolicy& operator=(const NodePolicy&) = delete;
  virtual ~NodePolicy() = default;

  /// True iff the node need not run: no needed node reads its output.
  virtual bool Skip(NodeId /*id*/) { return false; }

  /// True iff the policy supplies the node's output rows itself (a cache
  /// hit, a loaded checkpoint). May fold bookkeeping into `result`.
  virtual bool Serve(NodeId /*id*/, ExecutionResult& /*result*/,
                     std::vector<Record>* /*rows*/) {
    return false;
  }

  /// Runs the step that computes node `id`. A policy may wrap it with a
  /// deadline, or re-run it after a retryable failure.
  virtual Status Attempt(NodeId /*id*/, const std::function<Status()>& step) {
    return step();
  }

  /// True iff OnComputed needs the rows of node `id`; engines whose flows
  /// are not rows only materialize them where this holds.
  virtual bool WantsRows(NodeId /*id*/) const { return false; }

  /// Called after node `id` was computed, with its rows and the run's
  /// rows_out so far (including `id`), iff WantsRows(id).
  virtual Status OnComputed(NodeId /*id*/, const std::vector<Record>& /*rows*/,
                            const ExecutionResult& /*result*/) {
    return Status::OK();
  }

  /// Called once, after the last node.
  virtual void Finalize(ExecutionResult& /*result*/) {}
};

/// FailedPrecondition unless `workflow` passed Refresh(). Every engine
/// entry point checks this before it plans anything.
inline Status RequireFresh(const Workflow& workflow) {
  if (!workflow.fresh()) {
    return Status::FailedPrecondition(
        "workflow must pass Refresh() before execution");
  }
  return Status::OK();
}

/// The reference strategy: ActivityChain::Execute over materialized rows.
class SerialStrategy {
 public:
  using Flow = std::vector<Record>;

  explicit SerialStrategy(const ExecutionContext& ctx) : ctx_(ctx) {}

  StatusOr<Flow> Source(const Schema&, const std::vector<Record>& rows) {
    return rows;
  }
  StatusOr<Flow> FromRows(const Schema&, Flow rows) { return rows; }
  StatusOr<Flow> Realign(Flow rows, const Schema& from, const Schema& to) {
    return RealignRecords(std::move(rows), from, to);
  }
  // Consumes `inputs`.
  StatusOr<Flow> RunChain(NodeId, const ActivityChain& chain,
                          const std::vector<Schema>& in_schemas,
                          std::vector<Flow>& inputs) {
    return chain.Execute(in_schemas, std::move(inputs), ctx_);
  }
  static size_t Rows(const Flow& rows) { return rows.size(); }

 protected:
  const ExecutionContext& ctx_;
};

/// Runs `workflow` (must be fresh) node by node in topo order: `strategy`
/// computes each node's flow, `policy` decides which nodes run at all.
template <typename Strategy>
StatusOr<ExecutionResult> DriveNodes(const Workflow& workflow,
                                     const ExecutionInput& input,
                                     Strategy& strategy, NodePolicy& policy) {
  using Flow = typename Strategy::Flow;
  constexpr bool kRowFlow = std::is_same_v<Flow, std::vector<Record>>;
  ExecutionResult result;
  std::map<NodeId, Flow> flows;
  std::map<NodeId, size_t> remaining_consumers;
  for (NodeId id : workflow.NodeIds()) {
    remaining_consumers[id] = workflow.Consumers(id).size();
  }
  // Hands a provider's flow to one consumer: the last consumer takes it
  // by move so peak memory tracks live edges, earlier ones copy.
  auto take_input = [&](NodeId p) {
    auto it = flows.find(p);
    if (--remaining_consumers[p] == 0) {
      Flow flow = std::move(it->second);
      flows.erase(it);
      return flow;
    }
    return it->second;
  };

  for (NodeId id : workflow.TopoOrder()) {
    if (policy.Skip(id)) continue;
    const bool is_recordset = workflow.IsRecordSet(id);
    Flow flow;
    std::vector<Record> served;
    if (policy.Serve(id, result, &served)) {
      ETLOPT_ASSIGN_OR_RETURN(flow, strategy.FromRows(workflow.OutputSchema(id),
                                                      std::move(served)));
    } else {
      std::vector<NodeId> providers = workflow.Providers(id);
      std::vector<Flow> inputs;
      inputs.reserve(providers.size());
      for (NodeId p : providers) inputs.push_back(take_input(p));
      // Set once a strategy call has taken `inputs`. A re-run after that
      // (a retryable failure the ownership rule above does not expect)
      // fails cleanly instead of running on moved-from rows.
      bool consumed = false;
      auto step = [&]() -> Status {
        if (consumed) {
          return Status::Internal(StrFormat(
              "node %d: step re-run after its inputs were consumed", id));
        }
        if (is_recordset) {
          const RecordSetDef& def = workflow.recordset(id);
          if (!providers.empty()) {
            // Staging or target recordset: realign to the declared schema.
            consumed = true;
            ETLOPT_ASSIGN_OR_RETURN(
                flow, strategy.Realign(std::move(inputs[0]),
                                       workflow.OutputSchema(providers[0]),
                                       def.schema));
            return Status::OK();
          }
          auto it = input.source_data.find(def.name);
          if (it == input.source_data.end()) {
            return Status::NotFound("no data bound for source recordset '" +
                                    def.name + "'");
          }
          for (const Record& r : it->second) {
            if (r.size() != def.schema.size()) {
              return Status::InvalidArgument(StrFormat(
                  "source '%s': record arity %zu != schema arity %zu",
                  def.name.c_str(), r.size(), def.schema.size()));
            }
          }
          ETLOPT_ASSIGN_OR_RETURN(flow,
                                  strategy.Source(def.schema, it->second));
          return Status::OK();
        }
        ETLOPT_FAULT_HIT(FaultSite::kActivityExecute);
        const ActivityChain& chain = workflow.chain(id);
        consumed = true;
        auto out =
            strategy.RunChain(id, chain, workflow.InputSchemas(id), inputs);
        if (!out.ok()) {
          return out.status().WithContext(StrFormat(
              "executing node %d ('%s')", id, chain.label().c_str()));
        }
        flow = std::move(out).value();
        return Status::OK();
      };
      ETLOPT_RETURN_NOT_OK(policy.Attempt(id, step));
      if (!is_recordset) result.rows_out[id] = Strategy::Rows(flow);
      if (policy.WantsRows(id)) {
        if constexpr (kRowFlow) {
          ETLOPT_RETURN_NOT_OK(policy.OnComputed(id, flow, result));
        } else {
          ETLOPT_RETURN_NOT_OK(
              policy.OnComputed(id, Strategy::ToRows(flow), result));
        }
      }
    }
    if (is_recordset && workflow.Consumers(id).empty()) {
      if constexpr (kRowFlow) {
        result.target_data.emplace(workflow.recordset(id).name,
                                   std::move(flow));
      } else {
        result.target_data.emplace(workflow.recordset(id).name,
                                   Strategy::ToRows(flow));
      }
    } else {
      flows.emplace(id, std::move(flow));
    }
  }
  policy.Finalize(result);
  return result;
}

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_NODE_DRIVER_H_
