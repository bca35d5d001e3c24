// Value: a single typed cell of a record.

#ifndef ETLOPT_SCHEMA_VALUE_H_
#define ETLOPT_SCHEMA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/statusor.h"

namespace etlopt {

/// The type of an attribute / Value.
///
/// Dates are carried as strings so that the paper's format-conversion
/// activities (American "MM/DD/YYYY" to European "DD/MM/YYYY") are
/// observable data transformations rather than no-ops.
enum class DataType : int {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

std::string_view DataTypeToString(DataType t);

/// A dynamically typed cell. NULL is first-class (SQL-style) because ETL
/// cleansing activities (NotNull checks, domain checks) act on it.
class Value {
 public:
  /// Constructs NULL.
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }

  DataType type() const;
  bool is_null() const { return type() == DataType::kNull; }

  /// Typed accessors; calling the wrong one aborts (programming error).
  bool bool_value() const;
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const;

  /// Numeric view: int64 and double both convert; other types abort.
  double AsDouble() const;

  /// Renders the value for CSV/printing. NULL renders as empty string.
  std::string ToString() const;

  /// Parses `text` as `type`. Empty text yields NULL for any type.
  static StatusOr<Value> Parse(std::string_view text, DataType type);

  /// Total ordering across types (NULL < bool < int/double < string;
  /// int and double compare numerically). Enables sorting record multisets
  /// for order-insensitive comparison.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator<(const Value& a, const Value& b);

  /// FNV-style hash consistent with operator== and with KeyOrder
  /// (records/record.h): -0.0 and every NaN hash as one canonical value.
  size_t Hash() const;

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr v) : v_(std::move(v)) {}

  Repr v_;
};

/// The key order of keyed maps (KeyOrder, records/record.h), three-way:
/// negative, zero or positive as `a` sorts before, with or after `b`.
/// It is operator<'s order, except that NaN sorts after every number and
/// is equivalent only to NaN, which makes it a strict weak order.
int KeyCompare(const Value& a, const Value& b);

}  // namespace etlopt

#endif  // ETLOPT_SCHEMA_VALUE_H_
