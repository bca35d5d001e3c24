// ColumnVector: one column of a RecordBatch.
//
// The columnar layer trades the row engines' Record-of-Value layout
// (one heap vector of variants per row) for contiguous typed arrays with
// a null byte-map, so the vectorized kernels run tight loops over plain
// int64_t/double data instead of variant dispatch per cell.
//
// Round-trip contract: a column rebuilt from Values hands back *exactly*
// the Values it was fed — same runtime type, same bytes — because the
// vectorized engine's outputs must be byte-identical to the row engines'
// (the engine-agreement property). Since recordsets are only
// arity-checked at the source, a cell's runtime type may disagree with
// the column's declared type (an int schema carrying a double after a
// union realign, say). Such a column *demotes*: it falls back to boxed
// Value storage for every cell, keeping the round-trip lossless at the
// price of the typed fast path. Kernels check boxed() and take the
// general per-cell path for demoted columns.

#ifndef ETLOPT_COLUMNAR_COLUMN_VECTOR_H_
#define ETLOPT_COLUMNAR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/value.h"

namespace etlopt {

class ColumnVector {
 public:
  /// An empty column whose typed storage matches `declared`. A declared
  /// type of kNull boxes from the start (no typed array to use).
  explicit ColumnVector(DataType declared = DataType::kString);

  DataType declared_type() const { return declared_; }

  /// True when the column fell back to boxed Value storage because some
  /// cell's runtime type disagreed with the declared type.
  bool boxed() const { return boxed_; }

  size_t size() const { return null_.size(); }
  void Reserve(size_t n);

  /// Appends one cell, demoting the column if the runtime type of a
  /// non-null `v` differs from the declared type.
  void Append(const Value& v);

  /// Appends cell `i` of `src` — same semantics as Append(src.ValueAt(i))
  /// without boxing the cell first.
  void AppendFrom(const ColumnVector& src, size_t i);

  bool IsNull(size_t i) const { return null_[i] != 0; }

  /// Runtime type of cell `i` (kNull for NULL cells).
  DataType TypeAt(size_t i) const;

  /// Boxes cell `i` back into a Value with its exact runtime type.
  Value ValueAt(size_t i) const;

  /// FNV hash of cell `i`, bit-identical to ValueAt(i).Hash().
  uint64_t CellHash(size_t i) const;

  /// ValueAt(i) == v, read in place without boxing the cell.
  bool CellEquals(size_t i, const Value& v) const;

  // Typed raw access for kernels; valid only when !boxed() and the
  // declared type matches. NULL positions hold a zero placeholder.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const std::string& string_at(size_t i) const { return strings_[i]; }
  /// One byte per row; non-zero means NULL.
  const uint8_t* null_bytes() const { return null_.data(); }

  /// New column containing rows sel[0], sel[1], ... in that order.
  ColumnVector Gather(const std::vector<uint32_t>& sel) const;

 private:
  /// Moves every cell into boxed storage; Append continues boxed.
  void Demote();

  DataType declared_;
  bool boxed_ = false;
  std::vector<uint8_t> null_;  // 1 = NULL; size() == row count
  // Exactly one of these is populated when !boxed_ (per declared_);
  // box_ is populated instead after demotion.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<Value> box_;
};

}  // namespace etlopt

#endif  // ETLOPT_COLUMNAR_COLUMN_VECTOR_H_
