// Parallel executor: a morsel-driven, partition-parallel engine.
//
// Nodes execute in topological order on the shared node driver
// (node_driver.h); this engine supplies only how one node's rows are
// computed, and inside a node the data is parallel:
//
//  * streaming activities (filter, project, function, surrogate key,
//    union) run data-parallel over fixed-size morsels of the input, and
//    their per-morsel outputs are concatenated in morsel order;
//  * blocking activities (aggregation, duplicate elimination, join
//    build/probe, difference/intersection) go through a hash-partitioned
//    exchange keyed on the activity's semantics (group-by keys, PK keys,
//    join keys, or the whole record), so each worker owns a disjoint key
//    range and per-partition execution is exactly correct.
//
// Output order is *reconstructed*, not merely made deterministic:
// streaming morsels preserve input order, exchanges either merge kept row
// indices back into input order (filters, difference/intersection) or
// k-way-merge key-sorted partition outputs (aggregation), and the join
// probes the partitioned build index in left-input order. The result is
// byte-identical to ExecuteWorkflow — same rows, same order, same
// rows_out — for every workflow, at any thread count, morsel size or
// partition count. Tests lean on that: equivalence checks reduce to
// straight equality.

#ifndef ETLOPT_ENGINE_PARALLEL_H_
#define ETLOPT_ENGINE_PARALLEL_H_

#include "engine/executor.h"

namespace etlopt {

struct ParallelOptions {
  /// Worker threads. 0 means ThreadPool::DefaultThreads().
  size_t num_threads = 0;
  /// Rows per morsel for streaming activities (and the scatter phase of
  /// exchanges). 0 means a sensible default (2048).
  size_t morsel_size = 0;
  /// Partition count for hash exchanges. 0 derives one from num_threads.
  /// The produced data is identical whatever the value; it only shapes
  /// load balance.
  size_t num_partitions = 0;
  /// Shared-result-cache knobs (off when cache == nullptr); content-
  /// neutral like every other knob here.
  CacheOptions cache;
};

/// Observability counters for a parallel run. All totals are
/// deterministic for fixed options; the per-worker split depends on
/// scheduling and is reported for load-balance inspection only.
struct ParallelStats {
  /// Worker threads the run actually used.
  size_t num_threads = 0;
  /// Morsel tasks dispatched for streaming activities.
  size_t streaming_morsels = 0;
  /// Partition tasks dispatched for blocking exchanges.
  size_t exchange_partitions = 0;
  /// Rows that crossed streaming activities.
  size_t streamed_rows = 0;
  /// Rows routed through hash exchanges.
  size_t exchanged_rows = 0;
  /// Rows processed per worker (size num_threads); the merge of the
  /// per-worker counters the engine keeps during the run.
  std::vector<size_t> worker_rows;
};

/// Runs `workflow` (must be fresh) over `input` with the parallel engine.
/// The result matches ExecuteWorkflow byte-for-byte (target_data rows and
/// order, and rows_out), deterministically across thread counts and
/// repeated runs.
StatusOr<ExecutionResult> ExecuteParallel(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const ParallelOptions& options = {},
                                          ParallelStats* stats = nullptr);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARALLEL_H_
