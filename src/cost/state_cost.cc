#include "cost/state_cost.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Folds cost and cardinality over a chain's members. A non-finite
// estimate (cardinalities multiplied past the double range by joins, say)
// is an InvalidArgument naming the activity, never a cost of inf or nan.
Status CostChain(const ActivityChain& chain, const std::vector<double>& inputs,
                 const CostModel& model, double* cost, double* out_card) {
  *cost = 0.0;
  std::vector<double> cur = inputs;
  for (const auto& m : chain.members()) {
    *cost += model.ActivityCost(m.activity, cur);
    double out = model.OutputCardinality(m.activity, cur);
    if (!std::isfinite(*cost) || !std::isfinite(out)) {
      return Status::InvalidArgument(StrFormat(
          "cost: activity '%s' has a non-finite %s estimate",
          m.activity.label().c_str(),
          std::isfinite(out) ? "cost" : "cardinality"));
    }
    cur = {out};
  }
  *out_card = cur[0];
  return Status::OK();
}

Status CheckTotal(double total) {
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("cost: state cost is not finite");
  }
  return Status::OK();
}

}  // namespace

StatusOr<CostBreakdown> ComputeCostBreakdown(const Workflow& workflow,
                                             const CostModel& model) {
  if (!workflow.fresh()) {
    return Status::FailedPrecondition("cost: workflow must be fresh");
  }
  CostBreakdown bd;
  for (NodeId id : workflow.TopoOrder()) {
    std::vector<NodeId> providers = workflow.Providers(id);
    std::vector<double> inputs;
    inputs.reserve(providers.size());
    for (NodeId p : providers) {
      inputs.push_back(bd.node_output_cardinality.at(p));
    }
    if (workflow.IsRecordSet(id)) {
      double card = providers.empty() ? workflow.recordset(id).cardinality
                                      : inputs[0];
      bd.node_output_cardinality[id] = card;
    } else {
      double cost = 0.0;
      double out = 0.0;
      ETLOPT_RETURN_NOT_OK(
          CostChain(workflow.chain(id), inputs, model, &cost, &out));
      bd.node_cost[id] = cost;
      bd.node_output_cardinality[id] = out;
      bd.node_input_cardinality[id] = std::move(inputs);
      bd.total += cost;
    }
  }
  ETLOPT_RETURN_NOT_OK(CheckTotal(bd.total));
  return bd;
}

StatusOr<double> StateCost(const Workflow& workflow, const CostModel& model) {
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd,
                          ComputeCostBreakdown(workflow, model));
  return bd.total;
}

StatusOr<CostBreakdown> IncrementalCostBreakdown(const Workflow& next,
                                                 const CostBreakdown& base,
                                                 const CostModel& model,
                                                 CostReuseStats* stats) {
  if (!next.fresh()) {
    return Status::FailedPrecondition("cost: workflow must be fresh");
  }
  const std::set<NodeId> dirty(next.dirty_nodes().begin(),
                               next.dirty_nodes().end());
  // One edge pass builds the port-ordered provider index; per-node
  // Providers() rescans are O(E) each and dominate the delta path.
  std::map<NodeId, std::vector<std::pair<int, NodeId>>> providers_of;
  for (const auto& e : next.edges()) {
    providers_of[e.to].push_back({e.port, e.from});
  }
  for (auto& [id, ps] : providers_of) std::sort(ps.begin(), ps.end());

  CostBreakdown bd;
  for (NodeId id : next.TopoOrder()) {
    std::vector<double> inputs;
    if (auto it = providers_of.find(id); it != providers_of.end()) {
      inputs.reserve(it->second.size());
      for (const auto& [port, from] : it->second) {
        inputs.push_back(bd.node_output_cardinality.at(from));
      }
    }
    if (next.IsRecordSet(id)) {
      bd.node_output_cardinality[id] =
          inputs.empty() ? next.recordset(id).cardinality : inputs[0];
      continue;
    }
    // Reuse iff the chain is untouched (not dirty), cached in the base,
    // and fed the exact same input cardinalities. The propagated inputs
    // of an untouched prefix are bit-identical to the base's, so exact
    // double comparison is the right test.
    bool reusable = dirty.count(id) == 0;
    if (reusable) {
      auto ci = base.node_cost.find(id);
      auto ii = base.node_input_cardinality.find(id);
      reusable = ci != base.node_cost.end() &&
                 ii != base.node_input_cardinality.end() &&
                 ii->second == inputs;
      if (reusable) {
        bd.node_cost[id] = ci->second;
        bd.node_output_cardinality[id] = base.node_output_cardinality.at(id);
      }
    }
    if (!reusable) {
      double cost = 0.0;
      double out = 0.0;
      ETLOPT_RETURN_NOT_OK(
          CostChain(next.chain(id), inputs, model, &cost, &out));
      bd.node_cost[id] = cost;
      bd.node_output_cardinality[id] = out;
    }
    if (stats != nullptr) {
      ++(reusable ? stats->reused_nodes : stats->recosted_nodes);
    }
    bd.total += bd.node_cost[id];
    bd.node_input_cardinality[id] = std::move(inputs);
  }
  ETLOPT_RETURN_NOT_OK(CheckTotal(bd.total));
  return bd;
}

}  // namespace etlopt
