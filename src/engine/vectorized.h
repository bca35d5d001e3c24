// Vectorized executor: columnar batch execution, and the one parallel
// engine, with the serial row engine as the correctness oracle.
//
// Nodes execute in topological order on the shared node driver
// (node_driver.h); this engine supplies only how one node's rows are
// computed. Data flows between nodes as ordered lists of RecordBatches
// (src/columnar/): rows are batched once at every source, kernels
// process whole batches, and targets flatten back to rows only at the
// very end. Selection (for predicates vector_eval can compile), NotNull,
// DomainCheck, Projection, PrimaryKeyCheck, Function, SurrogateKey,
// Aggregation, Union and Join run through the vectorized kernels; the
// rest (Difference/Intersection, and Selections with unsupported
// predicate shapes) falls back per-activity to the row path: flatten,
// one Activity::Execute over the whole flow, re-batch. The fallback
// keeps the engine total over every workflow the row engine accepts,
// with identical results and identical errors.
//
// Parallelism: a ThreadPool of num_threads drivers, with batches as the
// morsels; the calling thread is one of the drivers, so at num_threads 1
// every kernel runs inline and no thread is started. Kernels take their
// batches by value and move the columns they pass through. 1:1 and
// filter kernels fan out one task per batch, and the
// blocking kinds (PK, aggregation, join build) exchange over
// num_partitions hash partitions of the batches' cached key hashes —
// each key is owned by exactly one partition that scans batches in flow
// order, so keep-first decisions and accumulation order match the serial
// scan exactly.
//
// Output contract: byte-identical to ExecuteWorkflow — same rows, same
// order, same rows_out — for every workflow, at any thread count, batch
// size or partition count. The contract harness
// (tests/contract/contract_test.cc) enforces this against the serial
// engine.

#ifndef ETLOPT_ENGINE_VECTORIZED_H_
#define ETLOPT_ENGINE_VECTORIZED_H_

#include "engine/executor.h"

namespace etlopt {

struct VectorizedOptions {
  /// Worker threads. 0 means ThreadPool::DefaultThreads(); 1 is the
  /// vectorized-serial engine of the agreement property.
  size_t num_threads = 0;
  /// Rows per batch at sources and re-batching points. 0 means
  /// kDefaultBatchSize. The produced data is identical whatever the
  /// value; it only shapes task granularity.
  size_t batch_size = 0;
  /// Partition count for the hash exchanges of blocking kernels.
  /// 0 derives one from num_threads. Content-neutral, like batch_size.
  size_t num_partitions = 0;
  /// Shared-result-cache knobs (off when cache == nullptr); content-
  /// neutral like every other knob here.
  CacheOptions cache;
};

/// Observability counters for a vectorized run. Totals are deterministic
/// for fixed options.
struct VectorizedStats {
  /// Worker threads the run actually used.
  size_t num_threads = 0;
  /// Batch tasks dispatched through vectorized kernels.
  size_t batches = 0;
  /// Chain members executed via vectorized kernels.
  size_t vectorized_members = 0;
  /// Chain members that fell back to the row path.
  size_t fallback_members = 0;
  /// Input rows that crossed vectorized members.
  size_t vectorized_rows = 0;
  /// Input rows that crossed fallback members.
  size_t fallback_rows = 0;
};

/// Runs `workflow` (must be fresh) over `input` with the vectorized
/// engine. The result matches ExecuteWorkflow byte-for-byte (target_data
/// rows and order, and rows_out).
StatusOr<ExecutionResult> ExecuteVectorized(
    const Workflow& workflow, const ExecutionInput& input,
    const VectorizedOptions& options = {}, VectorizedStats* stats = nullptr);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_VECTORIZED_H_
