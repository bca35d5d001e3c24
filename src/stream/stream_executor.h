// StreamExecutor: drives a workflow over a MicroBatchSource with delta
// propagation and exactly-once restart semantics.
//
// Each micro-batch runs on the node driver (engine/node_driver.h), the
// same topo-order loop as every other engine; the stream supplies only
// a strategy whose chain step works against per-node incremental state.
// Per-node modes, assigned by a static pass over the graph:
//  * stateless activities (Selection/NotNull/DomainCheck/Projection/
//    Function/SurrogateKey/Union) process only each batch's delta;
//  * PrimaryKeyCheck keeps a persistent seen-key set and emits only
//    first occurrences (delta in, delta out);
//  * Join keeps both input histories and per-key indexes, emitting
//    exactly the new pairs each batch (delta in, delta out);
//  * Aggregation keeps persistent per-group accumulators (the same
//    AggAcc as the batch engine); its output is a refresh: the current
//    sorted group table;
//  * Difference/Intersection keep bag counts per side (delta in,
//    refresh out);
//  * where an aggregation is followed only by row-wise members
//    (Selection/NotNull/DomainCheck/Projection/Function/SurrogateKey)
//    down to its targets, the refresh is carried as a keyed changelog:
//    each batch emits only the groups whose accumulators changed, in
//    group-key order, as upserts; the row-wise members run on those
//    rows only, a row a filter drops becomes a delete of its group,
//    and the target holds its rows by group;
//  * any other node downstream of a refresh output recomputes from
//    scratch each batch over the full stream so far (delta-side inputs
//    are accumulated into per-port histories).
// The batch's ExecutionResult then folds into the run's result: delta
// nodes and targets accumulate, refresh ones are replaced, keyed ones
// apply their changelog.
//
// The final result is byte-identical — as a multiset per target, with
// exactly equal rows_out — to one-shot ExecuteWorkflow over the whole
// capture (see DESIGN.md for the two documented order caveats).
//
// Each batch is transactional: the attempt stages every state mutation
// in per-batch overlays and commits only on success, so transient
// faults retry the batch against unmodified state. With a
// checkpoint_dir set, the committed frontier (plus all operator state
// and accumulated targets) is persisted every checkpoint interval in
// an ETLSTRM1 file keyed on workflow signature x capture fingerprint; a
// crashed run resumes at the frontier and applies every batch to the
// persistent state exactly once.

#ifndef ETLOPT_STREAM_STREAM_EXECUTOR_H_
#define ETLOPT_STREAM_STREAM_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "stream/micro_batch.h"
#include "stream/stream_options.h"

namespace etlopt {

struct StreamStats {
  /// Batches executed (and committed) by this run.
  size_t batches_run = 0;
  /// Batches skipped because a checkpoint already covered them.
  size_t batches_skipped = 0;
  /// True when the run restored state from a checkpoint.
  bool resumed = false;
  /// Checkpoints that failed to read or validate and were discarded.
  size_t checkpoints_rejected = 0;
  size_t checkpoints_written = 0;
  size_t checkpoint_write_failures = 0;
  /// Stale sibling stream_*.ckpt files GC'd after a successful run.
  size_t stale_checkpoints_pruned = 0;
  /// The checkpoint-every-k cadence this run actually used (the plan's
  /// Young interval when recovery_plan is enabled, else the knob).
  uint64_t checkpoint_interval = 0;
  /// Per-batch retries performed (transient faults absorbed).
  uint64_t retries = 0;
  /// Nodes running in delta mode / refresh (recompute) mode.
  size_t delta_nodes = 0;
  size_t refresh_nodes = 0;
  /// Of the refresh nodes, those carrying a keyed changelog.
  size_t keyed_nodes = 0;
  /// Wall latency of each executed batch, in microseconds (bench p99).
  std::vector<int64_t> batch_micros;
};

class StreamExecutor {
 public:
  explicit StreamExecutor(StreamOptions options);

  /// Streams `capture` through `workflow` batch by batch and returns the
  /// final accumulated result. The workflow must be fresh().
  StatusOr<ExecutionResult> Run(const Workflow& workflow,
                                const ExecutionInput& capture,
                                StreamStats* stats = nullptr);

  /// Removes the run's stream checkpoint (if any).
  Status ClearCheckpoints(const Workflow& workflow,
                          const ExecutionInput& capture) const;

 private:
  std::string CheckpointPathFor(uint64_t workflow_hash,
                                uint64_t fingerprint) const;

  StreamOptions options_;
};

}  // namespace etlopt

#endif  // ETLOPT_STREAM_STREAM_EXECUTOR_H_
