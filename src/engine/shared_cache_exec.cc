#include "engine/shared_cache_exec.h"

#include <algorithm>

#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "graph/subgraph_signature.h"

namespace etlopt {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FoldU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<unsigned char>(v >> (8 * i))) * kFnvPrime;
  }
  return h;
}

// Order-sensitive content fold of a row list. Process-stable is enough:
// the shared cache lives and dies with the process.
uint64_t RowsFingerprint(const std::vector<Record>& rows) {
  uint64_t h = kFnv1aBasis;
  h = FoldU64(h, rows.size());
  for (const Record& r : rows) {
    h = FoldU64(h, r.size());
    for (const Value& v : r.values()) h = FoldU64(h, v.Hash());
  }
  return h;
}

uint64_t LookupFingerprint(
    const std::map<std::vector<Value>, Value>& lookup) {
  uint64_t h = kFnv1aBasis;
  h = FoldU64(h, lookup.size());
  for (const auto& [key, value] : lookup) {
    h = FoldU64(h, key.size());
    for (const Value& v : key) h = FoldU64(h, v.Hash());
    h = FoldU64(h, value.Hash());
  }
  return h;
}

bool HasBlockingMember(const ActivityChain& chain) {
  for (const ActivityChain::Member& m : chain.members()) {
    switch (m.activity.kind()) {
      case ActivityKind::kPrimaryKeyCheck:
      case ActivityKind::kAggregation:
      case ActivityKind::kJoin:
      case ActivityKind::kDifference:
      case ActivityKind::kIntersection:
        return true;
      default:
        break;
    }
  }
  return false;
}

}  // namespace

bool CachePlan::IsCutPoint(NodeId id) const {
  if (workflow_.IsRecordSet(id)) return false;
  if (options_cut_points_ == CutPointPolicy::kAll) return true;
  if (HasBlockingMember(workflow_.chain(id))) return true;
  for (NodeId c : workflow_.Consumers(id)) {
    if (workflow_.IsRecordSet(c)) return true;          // stage boundary
    if (workflow_.Providers(c).size() > 1) return true;  // union provider
  }
  return false;
}

CachePlan::CachePlan(const Workflow& workflow, const ExecutionInput& input,
                     const CacheOptions& options)
    : workflow_(workflow),
      cache_(options.cache),
      options_cut_points_(options.cut_points) {
  if (cache_ == nullptr) return;
  enabled_ = true;
  stats_.enabled = true;

  SubgraphSignatureInputs sig_in;
  sig_in.source_fingerprint = [&input](const std::string& name) -> uint64_t {
    auto it = input.source_data.find(name);
    // A missing binding fails execution later anyway; fold a distinct
    // constant so it can never alias a bound source.
    if (it == input.source_data.end()) return 0x6d697373696e6721ull;
    return RowsFingerprint(it->second);
  };
  sig_in.lookup_fingerprint = [&input](const std::string& name) -> uint64_t {
    auto it = input.context.lookups.find(name);
    if (it == input.context.lookups.end()) return 0x6d697373696e6721ull;
    return LookupFingerprint(it->second.entries());
  };
  signatures_ = AllSubgraphResultSignatures(workflow_, sig_in);

  // Acquire pass, downstream-first: a hit at a cut point suppresses every
  // probe inside its cone; reverse topo order guarantees a node already
  // leased can never later land inside a served cone (cones only extend
  // upstream).
  std::vector<char> in_served(signatures_.size(), 0);
  std::vector<NodeId> topo = workflow_.TopoOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    NodeId id = *it;
    if (in_served[id] || !IsCutPoint(id)) continue;
    ++stats_.cut_points;
    // Cache fault sites are swallowed, not propagated: an injected error
    // or crash means "the cache was unavailable here", because a result
    // cache must never be able to fail a run.
    if (!FaultProbe(FaultSite::kCacheLookup).ok()) {
      ++stats_.misses;  // injected cache failure: recompute locally
      continue;
    }
    // Waiting on another run's in-flight lease is only deadlock-free
    // while this run holds no leases of its own.
    auto r = cache_->Acquire(signatures_[id], /*may_wait=*/leases_.empty());
    if (r.kind == SharedResultCache::Outcome::kLeased) {
      leases_[id] = signatures_[id];
      ++stats_.misses;
      continue;
    }
    if (r.kind == SharedResultCache::Outcome::kBusy) {
      ++stats_.misses;
      continue;
    }
    std::shared_ptr<const CachedSubgraphResult> entry = std::move(r.value);
    // Transfer the publisher's per-node bookkeeping by canonical DFS
    // position. Equal signatures guarantee positionally matching cones;
    // a size mismatch means a collision — treat as a miss.
    std::vector<NodeId> cone = SubtreeNodes(workflow_, id);
    if (entry->subtree_rows_out.size() != cone.size()) {
      ++stats_.misses;
      continue;
    }
    for (size_t i = 0; i < cone.size(); ++i) {
      in_served[cone[i]] = 1;
      if (!workflow_.IsRecordSet(cone[i])) {
        transferred_rows_out_[cone[i]] = entry->subtree_rows_out[i];
      }
    }
    served_[id] = std::move(entry);
    ++stats_.hits;
  }

  // Needed-set pruning: reverse reachability from the targets, stopping
  // at served cut points. A node outside the needed set has every path
  // to a target covered by a served cone and never executes.
  needed_.assign(signatures_.size(), 0);
  std::vector<NodeId> stack;
  for (NodeId id : workflow_.NodeIds()) {
    if (workflow_.Consumers(id).empty()) stack.push_back(id);
  }
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    if (needed_[id]) continue;
    needed_[id] = 1;
    if (served_.count(id) != 0) continue;  // cone served: don't descend
    for (NodeId p : workflow_.Providers(id)) stack.push_back(p);
  }
}

CachePlan::~CachePlan() {
  // Error paths and injected crashes land here with leases still open;
  // waiters wake with kBusy and recompute.
  for (const auto& [id, sig] : leases_) cache_->Abort(sig);
}

bool CachePlan::Skip(NodeId id) { return enabled_ && !needed_[id]; }

bool CachePlan::Serve(NodeId id, ExecutionResult& /*result*/,
                      std::vector<Record>* rows) {
  if (!enabled_) return false;
  auto it = served_.find(id);
  if (it == served_.end()) return false;
  *rows = it->second->rows;
  return true;
}

Status CachePlan::OnComputed(NodeId id, const std::vector<Record>& rows,
                             const ExecutionResult& result) {
  auto lease = leases_.find(id);
  if (lease == leases_.end()) return Status::OK();
  uint64_t sig = lease->second;
  leases_.erase(lease);
  if (!FaultProbe(FaultSite::kCacheMaterialize).ok()) {
    cache_->Abort(sig);  // injected failure: others recompute
    return Status::OK();
  }
  auto entry = std::make_shared<CachedSubgraphResult>();
  entry->rows = rows;
  std::vector<NodeId> cone = SubtreeNodes(workflow_, id);
  entry->subtree_rows_out.reserve(cone.size());
  for (NodeId n : cone) {
    if (workflow_.IsRecordSet(n)) {
      entry->subtree_rows_out.push_back(0);
      continue;
    }
    // Inside this cone a node's count comes either from this run's
    // execution or from a deeper cone served out of the cache.
    auto tr = transferred_rows_out_.find(n);
    if (tr != transferred_rows_out_.end()) {
      entry->subtree_rows_out.push_back(tr->second);
    } else {
      auto ro = result.rows_out.find(n);
      entry->subtree_rows_out.push_back(
          ro == result.rows_out.end() ? 0 : ro->second);
    }
  }
  entry->bytes = ApproxRowsBytes(entry->rows) +
                 entry->subtree_rows_out.size() * sizeof(size_t) + 64;
  cache_->Publish(sig, std::move(entry));
  ++stats_.published;
  return Status::OK();
}

void CachePlan::Finalize(ExecutionResult& result) {
  if (!enabled_) return;
  stats_.nodes_executed = result.rows_out.size();
  for (const auto& [id, n] : result.rows_out) stats_.rows_computed += n;
  for (NodeId id : workflow_.NodeIds()) {
    if (!workflow_.IsRecordSet(id)) ++stats_.nodes_total;
  }
  // Cache-served cones still report per-node row counts: transferred
  // positionally from the run that computed them.
  for (const auto& [id, n] : transferred_rows_out_) result.rows_out[id] = n;
  result.cache = stats_;
}

}  // namespace etlopt
