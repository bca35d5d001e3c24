// CachePlan: the shared-result-cache policy on the node driver.
//
// Every engine runs the one topo-order loop in engine/node_driver.h;
// CachePlan is the NodePolicy that plugs the shared result cache into
// it. A plan is built once per run:
//
//  1. signature pass — subgraph result signatures for every node, with
//     source/lookup fingerprints bound from the run's ExecutionInput;
//  2. cut-point selection per CutPointPolicy;
//  3. acquire pass, downstream-first (reverse topo): each cut point not
//     inside an already-served cone is probed. A hit serves the whole
//     upstream cone (rows injected at the cut node, per-node rows_out
//     transferred positionally via SubtreeNodes); a lease obliges this
//     run to publish the node's rows once computed. Only the FIRST probe
//     may block on another run's in-flight lease — after this run holds
//     any lease itself, probes are non-blocking (kBusy ⇒ recompute),
//     which keeps the cross-run wait graph acyclic;
//  4. needed-set pruning — reverse reachability from the targets that
//     stops descending at served nodes. Skip(id) nodes never execute.
//
// During the loop the driver asks Serve(id) (inject the cached rows
// instead of computing), hands leased nodes' rows to OnComputed (which
// publishes them), and calls Finalize at the end (merges transferred
// rows_out, fills ExecutionResult::cache). The destructor aborts any
// lease the run did not get to publish — error paths and injected faults
// degrade to other runs recomputing, never to a hang.
//
// With CacheOptions::cache == nullptr the plan is inert: it skips,
// serves and publishes nothing.

#ifndef ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_
#define ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_

#include <map>
#include <memory>
#include <vector>

#include "engine/executor.h"
#include "engine/node_driver.h"
#include "service/shared_result_cache.h"

namespace etlopt {

class CachePlan : public NodePolicy {
 public:
  /// Builds the plan (signature, acquire, pruning passes). `workflow`
  /// must be fresh and must outlive the plan; `input` is only read
  /// during construction.
  CachePlan(const Workflow& workflow, const ExecutionInput& input,
            const CacheOptions& options);
  ~CachePlan() override;

  /// True iff every path from `id` to a target passes through a
  /// cache-served cut point.
  bool Skip(NodeId id) override;

  /// True iff `id` is a served cut point: copies the cached rows into
  /// *rows instead of executing the node's cone.
  bool Serve(NodeId id, ExecutionResult& result,
             std::vector<Record>* rows) override;

  /// True iff the run holds an unpublished lease on `id`.
  bool WantsRows(NodeId id) const override {
    return enabled_ && leases_.count(id) != 0;
  }

  /// Publishes the rows of a leased node for other runs.
  Status OnComputed(NodeId id, const std::vector<Record>& rows,
                    const ExecutionResult& result) override;

  /// Merges cache-transferred rows_out entries into `result` and fills
  /// `result.cache`.
  void Finalize(ExecutionResult& result) override;

 private:
  bool IsCutPoint(NodeId id) const;

  const Workflow& workflow_;
  SharedResultCache* cache_ = nullptr;
  CutPointPolicy options_cut_points_ = CutPointPolicy::kAuto;
  bool enabled_ = false;
  std::vector<uint64_t> signatures_;  // NodeId-indexed
  std::vector<char> needed_;          // NodeId-indexed
  std::map<NodeId, std::shared_ptr<const CachedSubgraphResult>> served_;
  std::map<NodeId, uint64_t> leases_;  // unreleased leases, by cut node
  std::map<NodeId, size_t> transferred_rows_out_;
  CacheRunStats stats_;
};

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_
