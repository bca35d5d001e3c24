#include "optimizer/transitions.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

bool Intersect(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  for (const auto& x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

// The semantic half of swap conditions 3-4: two adjacent unary chains may
// be reordered only if neither reads (functionality) or re-derives
// (value-changed) an attribute whose value the other one establishes.
Status CheckSwapSemantics(const ActivityChain& up, const ActivityChain& down) {
  if (Intersect(down.FunctionalityAttrs(), up.ValueChangedAttrs())) {
    return Status::FailedPrecondition(
        "swap: downstream activity reads attributes computed upstream");
  }
  if (Intersect(up.FunctionalityAttrs(), down.ValueChangedAttrs())) {
    return Status::FailedPrecondition(
        "swap: upstream activity reads attributes the downstream one "
        "re-computes");
  }
  if (Intersect(up.ValueChangedAttrs(), down.ValueChangedAttrs())) {
    return Status::FailedPrecondition(
        "swap: both activities compute the same attribute; order is "
        "semantically fixed");
  }
  return Status::OK();
}

Status CheckUnaryActivityNode(const Workflow& w, NodeId id, const char* role) {
  if (!w.IsActivity(id)) {
    return Status::InvalidArgument(StrFormat("%s: node %d is not an activity",
                                             role, id));
  }
  if (!w.chain(id).is_unary()) {
    return Status::FailedPrecondition(
        StrFormat("%s: node %d is not unary", role, id));
  }
  return Status::OK();
}

Status CheckBinaryActivityNode(const Workflow& w, NodeId id, const char* role) {
  if (!w.IsActivity(id)) {
    return Status::InvalidArgument(StrFormat("%s: node %d is not an activity",
                                             role, id));
  }
  if (!w.chain(id).is_binary()) {
    return Status::FailedPrecondition(
        StrFormat("%s: node %d is not binary", role, id));
  }
  return Status::OK();
}

// Runs a transition's surgery (precheck already passed): in a new session
// on `session` when one is given — rolled back again if the surgery is
// rejected — or directly on `w`.
template <typename Surgery>
Status RunSurgery(Workflow& w, Workflow::UndoLog* session, Surgery surgery) {
  if (session == nullptr) return surgery();
  w.BeginSurgery(session);
  Status st = surgery();
  if (!st.ok()) w.RollbackSurgery();
  return st;
}

}  // namespace

Status ApplySwap(Workflow& w, NodeId a1, NodeId a2,
                 Workflow::UndoLog* session) {
  ETLOPT_RETURN_NOT_OK(CheckUnaryActivityNode(w, a1, "swap"));
  ETLOPT_RETURN_NOT_OK(CheckUnaryActivityNode(w, a2, "swap"));
  std::vector<NodeId> consumers = w.Consumers(a1);
  if (consumers.size() != 1 || consumers[0] != a2) {
    return Status::FailedPrecondition("swap: activities are not adjacent");
  }
  ETLOPT_RETURN_NOT_OK(CheckSwapSemantics(w.chain(a1), w.chain(a2)));
  return RunSurgery(w, session, [&] {
    ETLOPT_RETURN_NOT_OK(w.SwapAdjacent(a1, a2));
    // Schema regeneration is the final arbiter (conditions 3-4).
    return w.Refresh().WithContext("swap rejected");
  });
}

Status ApplyFactorize(Workflow& w, NodeId ab, NodeId a1, NodeId a2,
                      Workflow::UndoLog* session) {
  ETLOPT_RETURN_NOT_OK(CheckBinaryActivityNode(w, ab, "factorize"));
  ETLOPT_RETURN_NOT_OK(CheckUnaryActivityNode(w, a1, "factorize"));
  ETLOPT_RETURN_NOT_OK(CheckUnaryActivityNode(w, a2, "factorize"));
  if (a1 == a2) {
    return Status::InvalidArgument("factorize: a1 and a2 must differ");
  }
  // Condition 1: same operation in terms of algebraic expression.
  if (w.chain(a1).SemanticsString() != w.chain(a2).SemanticsString()) {
    return Status::FailedPrecondition(
        "factorize: activities are not homologous");
  }
  // Condition 2: common consumer ab, through different ports.
  if (w.Consumers(a1) != std::vector<NodeId>{ab} ||
      w.Consumers(a2) != std::vector<NodeId>{ab}) {
    return Status::FailedPrecondition(
        "factorize: both activities must directly feed the binary");
  }
  ETLOPT_RETURN_NOT_OK(CheckDistributesOverBinary(w.chain(a1), w.chain(ab)));
  return RunSurgery(w, session, [&] {
    NodeId ab_consumer = w.Consumers(ab)[0];
    // Keep a1's chain (the paper reuses one of the removed activities'
    // identities for the new node; we keep the smaller priority label).
    ActivityChain clone =
        w.PriorityLabelOf(a1) <= w.PriorityLabelOf(a2) ? w.chain(a1)
                                                       : w.chain(a2);
    ETLOPT_RETURN_NOT_OK(w.RemoveChainNode(a1));
    ETLOPT_RETURN_NOT_OK(w.RemoveChainNode(a2));
    ETLOPT_RETURN_NOT_OK(
        w.InsertOnEdge(std::move(clone), ab, ab_consumer).status());
    return w.Refresh().WithContext("factorize rejected");
  });
}

Status ApplyDistribute(Workflow& w, NodeId ab, NodeId a,
                       Workflow::UndoLog* session) {
  ETLOPT_RETURN_NOT_OK(CheckBinaryActivityNode(w, ab, "distribute"));
  ETLOPT_RETURN_NOT_OK(CheckUnaryActivityNode(w, a, "distribute"));
  // Condition 1: the binary is the provider of a.
  if (w.Providers(a) != std::vector<NodeId>{ab}) {
    return Status::FailedPrecondition(
        "distribute: activity must directly consume the binary");
  }
  ETLOPT_RETURN_NOT_OK(CheckDistributesOverBinary(w.chain(a), w.chain(ab)));
  return RunSurgery(w, session, [&] {
    ActivityChain clone = w.chain(a);
    std::vector<NodeId> flows = w.Providers(ab);
    ETLOPT_RETURN_NOT_OK(w.RemoveChainNode(a));
    for (NodeId flow : flows) {
      ETLOPT_RETURN_NOT_OK(w.InsertOnEdge(clone, flow, ab).status());
    }
    return w.Refresh().WithContext("distribute rejected");
  });
}

Status ApplyMerge(Workflow& w, NodeId a1, NodeId a2,
                  Workflow::UndoLog* session) {
  return RunSurgery(w, session, [&] {
    ETLOPT_RETURN_NOT_OK(w.MergeInto(a1, a2));
    return w.Refresh().WithContext("merge rejected");
  });
}

Status ApplySplit(Workflow& w, NodeId a, size_t at,
                  Workflow::UndoLog* session) {
  return RunSurgery(w, session, [&] {
    ETLOPT_RETURN_NOT_OK(w.SplitNode(a, at).status());
    return w.Refresh().WithContext("split rejected");
  });
}

Status CheckDistributesOverBinary(const ActivityChain& chain,
                                  const ActivityChain& binary) {
  auto is_per_row = [](ActivityKind k) {
    switch (k) {
      case ActivityKind::kSelection:
      case ActivityKind::kNotNull:
      case ActivityKind::kDomainCheck:
      case ActivityKind::kProjection:
      case ActivityKind::kFunction:
      case ActivityKind::kSurrogateKey:
        return true;
      default:
        return false;
    }
  };
  auto is_pure_filter = [](ActivityKind k) {
    switch (k) {
      case ActivityKind::kSelection:
      case ActivityKind::kNotNull:
      case ActivityKind::kDomainCheck:
        return true;
      default:
        return false;
    }
  };
  ActivityKind bk = binary.front().kind();
  for (const auto& m : chain.members()) {
    ActivityKind k = m.activity.kind();
    switch (bk) {
      case ActivityKind::kUnion:
        if (!is_per_row(k)) {
          return Status::FailedPrecondition(
              StrFormat("'%s' does not distribute over UNION (rows from "
                        "different flows interact)",
                        m.activity.label().c_str()));
        }
        break;
      case ActivityKind::kDifference:
      case ActivityKind::kIntersection:
        if (!is_pure_filter(k)) {
          return Status::FailedPrecondition(
              StrFormat("'%s' does not distribute over DIFF/INTERSECT "
                        "(transforms can merge distinct rows)",
                        m.activity.label().c_str()));
        }
        break;
      case ActivityKind::kJoin: {
        if (!is_pure_filter(k)) {
          return Status::FailedPrecondition(StrFormat(
              "'%s' does not distribute over JOIN", m.activity.label().c_str()));
        }
        const auto& keys =
            binary.front().params_as<JoinParams>().key_attrs;
        for (const auto& f : m.activity.FunctionalityAttrs()) {
          if (std::find(keys.begin(), keys.end(), f) == keys.end()) {
            return Status::FailedPrecondition(StrFormat(
                "'%s' reads non-key attribute '%s'; cannot distribute over "
                "JOIN",
                m.activity.label().c_str(), f.c_str()));
          }
        }
        break;
      }
      default:
        return Status::Internal("unexpected binary kind");
    }
  }
  return Status::OK();
}

}  // namespace etlopt
