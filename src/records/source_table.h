// SourceTable: one source recordset's rows in an ExecutionInput, and the
// fingerprints the result cache and the checkpoint keys take over them.
//
// A SourceTable is a handle on shared storage, as a LookupTable is.
// Copying one — and with it an ExecutionInput — shares the rows and the
// fingerprints already computed over them instead of copying them. Every
// mutator (push_back, emplace_back, assign, clear, reserve, the
// non-const operator[]) first detaches this handle: storage another copy
// also holds is copied, and storage held alone drops its fingerprints.
// So no copy sees another copy's change, and no fingerprint ever answers
// for rows it was not computed over. Write through a reference a mutator
// returns only until this table is next copied, mutated or
// fingerprinted: a write after that is not seen by the fingerprints.

#ifndef ETLOPT_RECORDS_SOURCE_TABLE_H_
#define ETLOPT_RECORDS_SOURCE_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "records/record.h"

namespace etlopt {

/// The fingerprints one input (a source's rows, a lookup table's
/// entries) keeps beside its storage: its content fingerprint, and its
/// segment of ExecutionInputFingerprint. FNV-1a reads bytes in order, so
/// a segment depends on the state the bytes before it left; it is kept
/// as the pair (state before, state after) and answers only for the same
/// state before. Thread-safe: concurrent readers compute a value once.
class InputFingerprints {
 public:
  /// The content fingerprint, computed by `compute()` on the first call.
  template <typename Compute>
  uint64_t Content(const Compute& compute) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!has_content_) {
      content_ = compute();
      has_content_ = true;
    }
    return content_;
  }

  /// The FNV state after this input's bytes, continuing from `before`:
  /// `compute(before)` unless the last segment continued from the same
  /// state.
  template <typename Compute>
  uint64_t Segment(uint64_t before, const Compute& compute) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!has_segment_ || segment_before_ != before) {
      segment_after_ = compute(before);
      segment_before_ = before;
      has_segment_ = true;
    }
    return segment_after_;
  }

  /// Drops both values. Only on storage no other handle holds, so no
  /// reader can be running.
  void Clear() {
    has_content_ = false;
    has_segment_ = false;
  }

 private:
  std::mutex mu_;
  bool has_content_ = false;  // guarded by mu_, as are the values below
  bool has_segment_ = false;
  uint64_t content_ = 0;
  uint64_t segment_before_ = 0;
  uint64_t segment_after_ = 0;
};

class SourceTable {
 public:
  using const_iterator = std::vector<Record>::const_iterator;

  SourceTable();
  SourceTable(std::vector<Record> rows);  // NOLINT: implicit by design
  SourceTable(std::initializer_list<Record> rows);
  // Copies share storage. No move operations are declared, so a move is
  // a copy and no handle is ever left without storage.
  SourceTable(const SourceTable&) = default;
  SourceTable& operator=(const SourceTable&) = default;

  /// The rows, in order.
  const std::vector<Record>& rows() const { return storage_->rows; }
  operator const std::vector<Record>&() const { return rows(); }  // NOLINT
  size_t size() const { return rows().size(); }
  bool empty() const { return rows().empty(); }
  const_iterator begin() const { return rows().begin(); }
  const_iterator end() const { return rows().end(); }
  const Record& operator[](size_t i) const { return rows()[i]; }

  void push_back(Record row) { Detach().push_back(std::move(row)); }
  template <typename... Args>
  Record& emplace_back(Args&&... args) {
    return Detach().emplace_back(std::forward<Args>(args)...);
  }
  template <typename It>
  void assign(It first, It last) {
    Detach().assign(first, last);
  }
  void clear() { Detach().clear(); }
  void reserve(size_t n) { Detach().reserve(n); }
  Record& operator[](size_t i) { return Detach()[i]; }

  /// Order-sensitive fold of every cell's Value::Hash: the content
  /// fingerprint the shared result cache's subgraph signatures read.
  /// Computed once per storage.
  uint64_t Fingerprint() const;

  /// The FNV state after the rows' record_io bytes, continuing from
  /// `before`: this source's part of ExecutionInputFingerprint after its
  /// name and row count. Kept for the last `before` asked.
  uint64_t FingerprintSegment(uint64_t before) const;

  friend bool operator==(const SourceTable& a, const SourceTable& b) {
    return a.rows() == b.rows();
  }
  friend bool operator==(const SourceTable& a, const std::vector<Record>& b) {
    return a.rows() == b;
  }

 private:
  struct Storage {
    std::vector<Record> rows;
    InputFingerprints fingerprints;
  };

  /// The rows, on storage no other handle holds and without fingerprints.
  std::vector<Record>& Detach();

  std::shared_ptr<Storage> storage_;
};

}  // namespace etlopt

#endif  // ETLOPT_RECORDS_SOURCE_TABLE_H_
