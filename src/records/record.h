// Record: one row of values, positionally aligned with a Schema.

#ifndef ETLOPT_RECORDS_RECORD_H_
#define ETLOPT_RECORDS_RECORD_H_

#include <map>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "schema/value.h"

namespace etlopt {

/// A row. Values align positionally with the owning recordset's schema.
class Record {
 public:
  Record() = default;
  explicit Record(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  /// The cells, for kernels that edit a row they own in place.
  std::vector<Value>& mutable_values() { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Lexicographic order over values (see Value's total order); used for
  /// order-insensitive multiset comparison of outputs.
  friend bool operator<(const Record& a, const Record& b) {
    return a.values_ < b.values_;
  }
  friend bool operator==(const Record& a, const Record& b) {
    return a.values_ == b.values_;
  }

  /// "(1, widget, 9.5)".
  std::string ToString() const;

  size_t Hash() const;

 private:
  std::vector<Value> values_;
};

/// The order of every keyed map (PK check, aggregation, join, difference
/// and intersection, on every engine) and of the aggregation merge:
/// lexicographic under KeyCompare (schema/value.h), Value's order except
/// that NaN sorts after every number and is equivalent only to NaN.
/// Value's own order leaves NaN unordered against everything, which is
/// no strict weak order, so a map keyed under it can merge a NaN key
/// with any other key.
struct KeyOrder {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      const int c = KeyCompare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
  bool operator()(const Record& a, const Record& b) const {
    return (*this)(a.values(), b.values());
  }
};

template <typename T>
using KeyMap = std::map<std::vector<Value>, T, KeyOrder>;

/// True iff `a` and `b` contain the same records with the same
/// multiplicities, in any order. This is the paper's empirical notion of
/// "same output" used to validate transition correctness.
bool SameRecordMultiset(std::vector<Record> a, std::vector<Record> b);

}  // namespace etlopt

#endif  // ETLOPT_RECORDS_RECORD_H_
