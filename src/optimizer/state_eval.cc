#include "optimizer/state_eval.h"

#include <utility>

#include "common/macros.h"

namespace etlopt {

namespace {

State FinishState(Workflow workflow, CostBreakdown bd, double cost) {
  State s;
  s.cost = cost;
  s.signature_hash = workflow.SignatureHash();
  s.breakdown = std::make_shared<const CostBreakdown>(std::move(bd));
  // The stored state is the new base: its figures are current, so the
  // dirty set restarts empty for the transitions derived from it.
  workflow.ClearDirtyNodes();
  s.workflow = std::move(workflow);
  return s;
}

}  // namespace

StatusOr<State> StateEvaluator::Eval(Workflow workflow) const {
  if (!workflow.fresh()) {
    ETLOPT_RETURN_NOT_OK(workflow.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd,
                          ComputeCostBreakdown(workflow, model_));
  full_recosts_.fetch_add(1, std::memory_order_relaxed);
  TrackPeakStateBytes(workflow.ApproxMemoryBytes());
  double cost = EffectiveCost(workflow, bd);
  return FinishState(std::move(workflow), std::move(bd), cost);
}

StatusOr<State> StateEvaluator::EvalFrom(Workflow workflow,
                                         const State& base) const {
  if (!workflow.fresh()) {
    ETLOPT_RETURN_NOT_OK(workflow.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd, DeltaRecost(workflow, base));
  double cost = EffectiveCost(workflow, bd);
  return FinishState(std::move(workflow), std::move(bd), cost);
}

StatusOr<NeighborEval> StateEvaluator::EvalNeighbor(const Workflow& applied,
                                                    const State& base) const {
  ETLOPT_CHECK(applied.fresh());
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd, DeltaRecost(applied, base));
  NeighborEval ne;
  ne.cost = EffectiveCost(applied, bd);
  ne.breakdown = std::make_shared<const CostBreakdown>(std::move(bd));
  ne.signature_hash = applied.SignatureHash();
#ifdef ETLOPT_PARANOID_CHECKS
  ne.signature = applied.Signature();
#endif
  return ne;
}

StatusOr<CostBreakdown> StateEvaluator::DeltaRecost(const Workflow& workflow,
                                                    const State& base) const {
  ETLOPT_CHECK(base.breakdown != nullptr);
  CostReuseStats stats;
  ETLOPT_ASSIGN_OR_RETURN(
      CostBreakdown bd,
      IncrementalCostBreakdown(workflow, *base.breakdown, model_, &stats));
#ifdef ETLOPT_PARANOID_CHECKS
  {
    auto full = ComputeCostBreakdown(workflow, model_);
    ETLOPT_CHECK_OK(full.status());
    ETLOPT_CHECK(bd.total == full.value().total);
    ETLOPT_CHECK(bd.node_cost == full.value().node_cost);
    ETLOPT_CHECK(bd.node_output_cardinality ==
                 full.value().node_output_cardinality);
    ETLOPT_CHECK(bd.node_input_cardinality ==
                 full.value().node_input_cardinality);
  }
#endif
  delta_recosts_.fetch_add(1, std::memory_order_relaxed);
  reused_nodes_.fetch_add(stats.reused_nodes, std::memory_order_relaxed);
  recosted_nodes_.fetch_add(stats.recosted_nodes, std::memory_order_relaxed);
  return bd;
}

State StateEvaluator::MaterializeState(const Workflow& applied,
                                       const NeighborEval& ne) const {
  State s;
  s.workflow = applied;  // the single counted copy of a surviving neighbor
  s.workflow.ClearDirtyNodes();
  s.cost = ne.cost;
  s.signature_hash = ne.signature_hash;
  s.breakdown = ne.breakdown;
  TrackPeakStateBytes(s.workflow.ApproxMemoryBytes());
  return s;
}

State StateEvaluator::MaterializeState(Workflow&& applied,
                                       const NeighborEval& ne) const {
  State s;
  s.workflow = std::move(applied);
  s.workflow.ClearDirtyNodes();
  s.cost = ne.cost;
  s.signature_hash = ne.signature_hash;
  s.breakdown = ne.breakdown;
  TrackPeakStateBytes(s.workflow.ApproxMemoryBytes());
  return s;
}

void StateEvaluator::ParanoidCheckRestore(const Workflow& restored,
                                          const State& base) const {
  ParanoidCheckRestore(restored, base.workflow, base.signature_hash,
                       base.cost);
}

void StateEvaluator::ParanoidCheckRestore(const Workflow& restored,
                                          const Workflow& base_wf,
                                          uint64_t base_hash,
                                          double base_cost) const {
#ifdef ETLOPT_PARANOID_CHECKS
  ETLOPT_CHECK(restored.DebugEquals(base_wf));
  ETLOPT_CHECK(restored.SignatureHash() == base_hash);
  auto full = ComputeCostBreakdown(restored, model_);
  ETLOPT_CHECK_OK(full.status());
  // States carry effective (cache-discounted) costs; the discount is a
  // deterministic function of (content, breakdown), so the restored
  // workflow must reproduce the base's cost bit for bit through it.
  ETLOPT_CHECK(EffectiveCost(restored, full.value()) == base_cost);
#else
  (void)restored;
  (void)base_wf;
  (void)base_hash;
  (void)base_cost;
#endif
}

double StateEvaluator::EffectiveCost(const Workflow& workflow,
                                     const CostBreakdown& bd) const {
  double base = CacheDiscountedCost(workflow, bd);
  if (reliability_ != nullptr) {
    base += ReliabilitySurcharge(workflow, bd, *reliability_);
  }
  return base;
}

double StateEvaluator::CacheDiscountedCost(const Workflow& workflow,
                                           const CostBreakdown& bd) const {
  if (hint_ == nullptr || !hint_->is_materialized) return bd.total;
  std::vector<uint64_t> sigs =
      AllSubgraphResultSignatures(workflow, hint_->inputs);
  // Mirror the executor's acquire pass: walk downstream-first; a
  // materialized node covers its whole upstream cone, and nested
  // materializations inside an already-covered cone add nothing.
  const std::vector<NodeId>& topo = workflow.TopoOrder();
  std::vector<char> avoided(sigs.size(), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    NodeId id = *it;
    if (avoided[id] || workflow.IsRecordSet(id)) continue;
    if (!hint_->is_materialized(sigs[id])) continue;
    for (NodeId n : SubtreeNodes(workflow, id)) avoided[n] = 1;
  }
  double cost = bd.total;
  for (const auto& [id, node_cost] : bd.node_cost) {
    if (static_cast<size_t>(id) < avoided.size() && avoided[id]) {
      cost -= node_cost * (1.0 - hint_->residual);
    }
  }
  return cost;
}

void StateEvaluator::TrackPeakStateBytes(size_t bytes) const {
  size_t prev = peak_state_bytes_.load(std::memory_order_relaxed);
  while (bytes > prev && !peak_state_bytes_.compare_exchange_weak(
                             prev, bytes, std::memory_order_relaxed)) {
  }
}

SearchPerf StateEvaluator::perf() const {
  SearchPerf p;
  p.full_recosts = full_recosts_.load(std::memory_order_relaxed);
  p.delta_recosts = delta_recosts_.load(std::memory_order_relaxed);
  p.reused_nodes = reused_nodes_.load(std::memory_order_relaxed);
  p.recosted_nodes = recosted_nodes_.load(std::memory_order_relaxed);
  p.peak_state_bytes = peak_state_bytes_.load(std::memory_order_relaxed);
  return p;
}

uint64_t SignatureInterner::Intern(const State& state) {
#ifdef ETLOPT_PARANOID_CHECKS
  std::string sig =
      state.signature.empty() ? state.workflow.Signature() : state.signature;
  auto [it, inserted] = table_.emplace(state.signature_hash, std::move(sig));
  if (!inserted) {
    ETLOPT_CHECK(it->second == (state.signature.empty()
                                    ? state.workflow.Signature()
                                    : state.signature));
  }
#endif
  return state.signature_hash;
}

uint64_t SignatureInterner::Intern(uint64_t hash,
                                   const std::string& signature) {
#ifdef ETLOPT_PARANOID_CHECKS
  auto [it, inserted] = table_.emplace(hash, signature);
  if (!inserted) {
    ETLOPT_CHECK(it->second == signature);
  }
#else
  (void)signature;
#endif
  return hash;
}

}  // namespace etlopt
