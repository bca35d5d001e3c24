// RecordBatch: a horizontal slice of a recordset in columnar layout.
//
// The vectorized engine's unit of work. A batch is a Schema plus one
// ColumnVector per attribute, all the same length. Batches convert
// losslessly to and from the row representation (FromRows/ToRows are
// exact inverses, including runtime cell types), which is what lets the
// row engines act as the byte-identical correctness oracle.
//
// Selection semantics: filters never mutate a batch in place; they
// produce an ascending selection vector (row indices to keep) and
// Gather() compacts it into a fresh, smaller batch. Ascending selection
// vectors preserve input order, so concatenating per-batch outputs in
// batch order reproduces the serial engines' row order exactly.

#ifndef ETLOPT_COLUMNAR_RECORD_BATCH_H_
#define ETLOPT_COLUMNAR_RECORD_BATCH_H_

#include <cstdint>
#include <vector>

#include "columnar/column_vector.h"
#include "common/statusor.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

/// Default rows per batch for the vectorized engine.
inline constexpr size_t kDefaultBatchSize = 1024;

class RecordBatch {
 public:
  RecordBatch() = default;

  /// An empty batch with one column per attribute of `schema`.
  explicit RecordBatch(Schema schema);

  /// Batches rows[begin, end), columns typed per `schema`. Rows must
  /// match the schema's arity (the engines validate sources up front).
  static RecordBatch FromRows(const Schema& schema,
                              const std::vector<Record>& rows, size_t begin,
                              size_t end);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVector& column(size_t i) const { return columns_[i]; }
  ColumnVector& column(size_t i) { return columns_[i]; }

  void Reserve(size_t n);

  /// Appends one row; aborts on arity mismatch (programming error).
  void AppendRow(const Record& r);

  /// Declares the row count after a kernel appended cells column-wise
  /// (bypassing AppendRow); aborts unless every column holds exactly `n`
  /// cells.
  void SetRowCount(size_t n);

  /// Boxes row `i` back into a Record (exact runtime cell types).
  Record RowAt(size_t i) const;

  /// Appends every row to `out` in order.
  void AppendRowsTo(std::vector<Record>* out) const;
  std::vector<Record> ToRows() const;

  /// Compacts rows sel[0], sel[1], ... (ascending for order-preserving
  /// filters) into a fresh batch with the same schema.
  RecordBatch Gather(const std::vector<uint32_t>& sel) const;

  /// Rebuilds the batch in `to`'s attribute order (realign / projection):
  /// output column j is this batch's column mapping[j], moved out of the
  /// consumed batch. `mapping` names each column at most once.
  RecordBatch SelectColumns(const std::vector<size_t>& mapping,
                            const Schema& to) &&;

  /// SelectColumns, except that output column `at` is `computed` (which
  /// must hold num_rows() cells) and mapping[at] is ignored: how the
  /// Function and SurrogateKey kernels assemble their output.
  RecordBatch SelectColumns(const std::vector<size_t>& mapping,
                            const Schema& to, size_t at,
                            ColumnVector computed) &&;

  /// Per-row FNV hash over the cells of `key_cols`, bit-identical to
  /// Record::Hash() of the extracted key record. The result is cached on
  /// the batch: the join and PK kernels hash each batch once and reuse
  /// the cache for partition routing and bucket lookup instead of
  /// re-hashing per probe row. NOT thread-safe — the engine computes the
  /// cache with one task per batch before any shared read-only phase.
  const std::vector<uint64_t>& KeyHashes(
      const std::vector<size_t>& key_cols) const;

 private:
  Schema schema_;
  std::vector<ColumnVector> columns_;
  size_t rows_ = 0;

  mutable bool hashes_cached_ = false;
  mutable std::vector<size_t> cached_key_cols_;
  mutable std::vector<uint64_t> cached_hashes_;
};

/// Splits `rows` into batches of at most `batch_size` rows (the last may
/// be short). Zero rows yields zero batches.
std::vector<RecordBatch> BatchRows(const Schema& schema,
                                   const std::vector<Record>& rows,
                                   size_t batch_size);

/// Concatenates every batch's rows, in batch order.
std::vector<Record> FlattenBatches(const std::vector<RecordBatch>& batches);

}  // namespace etlopt

#endif  // ETLOPT_COLUMNAR_RECORD_BATCH_H_
