// Vectorized operator kernels over RecordBatches.
//
// Pure single-threaded primitives: each function processes one batch, or
// one hash partition's worth of rows across a batch list. All thread-pool
// fan-out lives in the engine (src/engine/vectorized.cc), which calls
// these from ParallelFor tasks — kernels never spawn work themselves, so
// src/columnar depends only on activity/expr/records/schema and the
// engine library can depend on it without a cycle.
//
// Correctness contract (the row engines are the oracle): every kernel
// reproduces the corresponding branch of Activity::Execute exactly —
// same kept rows, same order, same cell bytes, same error messages.
// Filters return ascending selection vectors; multi-batch kernels route
// each key to exactly one hash partition (hash % num_partitions over the
// batch's cached KeyHashes) and scan batches in order within a
// partition, so keep-first / accumulation order per key equals the
// serial engines' global scan order.

#ifndef ETLOPT_COLUMNAR_KERNELS_H_
#define ETLOPT_COLUMNAR_KERNELS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "activity/activity.h"
#include "activity/agg_accumulator.h"
#include "activity/binding.h"
#include "columnar/record_batch.h"
#include "columnar/vector_eval.h"
#include "common/statusor.h"

namespace etlopt {
namespace kernels {

/// Rows kept by a Selection predicate (must satisfy
/// CanVectorizePredicate), ascending.
StatusOr<std::vector<uint32_t>> SelectionFilter(const Expr& predicate,
                                                const RecordBatch& batch);

/// Rows whose column `col` is non-NULL, ascending.
std::vector<uint32_t> NotNullFilter(const RecordBatch& batch, size_t col);

/// Rows whose numeric column `col` lies in [lo, hi] (NULLs dropped),
/// ascending. Non-null non-numeric cells reproduce the row engine's
/// InvalidArgument ("activity '<label>': domain check over non-numeric
/// '<attr>'").
StatusOr<std::vector<uint32_t>> DomainCheckFilter(const RecordBatch& batch,
                                                  size_t col, double lo,
                                                  double hi,
                                                  const std::string& label,
                                                  const std::string& attr);

/// A Function over one batch: output column `f.layout.computed` holds
/// f.fn of each row's argument cells, the other columns are moved out of
/// `batch` per `f.layout.source`. Fails with the row engine's Status at
/// the first failing row. A result whose runtime type disagrees with the
/// declared output type demotes that column to boxed storage.
StatusOr<RecordBatch> FunctionBatch(RecordBatch batch,
                                    const BoundFunction& f,
                                    const Schema& out_schema);

/// A SurrogateKey over one batch, laid out like FunctionBatch. The first
/// row whose key is absent from the table fails with SurrogateKeyMiss.
StatusOr<RecordBatch> SurrogateKeyBatch(RecordBatch batch,
                                        const BoundSurrogateKey& sk,
                                        const Schema& out_schema,
                                        const std::string& label);

/// Key cell values of row `row` at `key_cols`, in order.
std::vector<Value> KeyAt(const RecordBatch& batch,
                         const std::vector<size_t>& key_cols, size_t row);

/// Primary-key keep-first for one hash partition: scans every batch in
/// order, and for rows whose cached key hash routes to `part` marks the
/// first occurrence of each key in keep[batch][row]. Requires KeyHashes
/// precomputed on every batch for `key_cols`.
void PkKeepPartition(const std::vector<RecordBatch>& batches,
                     const std::vector<size_t>& key_cols, size_t part,
                     size_t num_partitions,
                     std::vector<std::vector<uint8_t>>* keep);

/// Aggregation state for one hash partition: group key -> one AggAcc per
/// AggSpec, fed in global scan order. The ordered map means partition
/// results merge into the serial engines' key-sorted output by a simple
/// key-merge. Requires KeyHashes precomputed for `group_cols`.
using GroupMap = KeyMap<std::vector<AggAcc>>;
GroupMap AggregatePartition(const std::vector<RecordBatch>& batches,
                            const std::vector<size_t>& group_cols,
                            const std::vector<size_t>& arg_cols, size_t part,
                            size_t num_partitions);

/// A row address within a batch list.
struct BatchRef {
  uint32_t batch = 0;
  uint32_t row = 0;
};

/// Join build index for one hash partition: key -> build rows in build
/// (input) order. NULL keys never enter the index (SQL join semantics).
/// Requires KeyHashes precomputed on the build batches for `key_cols`.
using JoinShard = KeyMap<std::vector<BatchRef>>;
JoinShard JoinBuildPartition(const std::vector<RecordBatch>& build,
                             const std::vector<size_t>& key_cols, size_t part,
                             size_t num_partitions);

/// Probes one left batch against the sharded build index, emitting for
/// each left row (in order) the concatenation of the left row and the
/// build row's passthrough columns, per matching build row in build
/// order — the serial engine's exact emit order. Left rows with NULL
/// keys never match. Requires KeyHashes precomputed on `left` for
/// `left_key_cols`.
RecordBatch JoinProbeBatch(const RecordBatch& left,
                           const std::vector<size_t>& left_key_cols,
                           const std::vector<JoinShard>& shards,
                           const std::vector<RecordBatch>& build,
                           const std::vector<size_t>& build_pass_cols,
                           const Schema& out_schema);

}  // namespace kernels
}  // namespace etlopt

#endif  // ETLOPT_COLUMNAR_KERNELS_H_
