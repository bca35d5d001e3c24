#include "schema/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

std::string_view DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType Value::type() const {
  switch (v_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kBool;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kDouble;
    case 4:
      return DataType::kString;
  }
  return DataType::kNull;
}

bool Value::bool_value() const {
  ETLOPT_CHECK(std::holds_alternative<bool>(v_));
  return std::get<bool>(v_);
}

int64_t Value::int_value() const {
  ETLOPT_CHECK(std::holds_alternative<int64_t>(v_));
  return std::get<int64_t>(v_);
}

double Value::double_value() const {
  ETLOPT_CHECK(std::holds_alternative<double>(v_));
  return std::get<double>(v_);
}

const std::string& Value::string_value() const {
  ETLOPT_CHECK(std::holds_alternative<std::string>(v_));
  return std::get<std::string>(v_);
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(v_))
    return static_cast<double>(std::get<int64_t>(v_));
  ETLOPT_CHECK(std::holds_alternative<double>(v_));
  return std::get<double>(v_);
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kDouble:
      return DoubleToString(double_value());
    case DataType::kString:
      return string_value();
  }
  return "";
}

StatusOr<Value> Value::Parse(std::string_view text, DataType type) {
  if (text.empty()) return Value::Null();
  std::string s(text);
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      if (s == "true" || s == "1") return Value::Bool(true);
      if (s == "false" || s == "0") return Value::Bool(false);
      return Status::InvalidArgument("not a bool: '" + s + "'");
    }
    case DataType::kInt64: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(s.c_str(), &end, 10);
      if (errno != 0 || end != s.c_str() + s.size())
        return Status::InvalidArgument("not an int: '" + s + "'");
      return Value::Int(v);
    }
    case DataType::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(s.c_str(), &end);
      if (errno != 0 || end != s.c_str() + s.size())
        return Status::InvalidArgument("not a double: '" + s + "'");
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(std::move(s));
  }
  return Status::InvalidArgument("unknown type");
}

namespace {

// Rank for the cross-type total order.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;  // numerics compare with each other
    case DataType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

bool operator==(const Value& a, const Value& b) {
  DataType ta = a.type();
  DataType tb = b.type();
  if (TypeRank(ta) != TypeRank(tb)) return false;
  switch (ta) {
    case DataType::kNull:
      return true;
    case DataType::kBool:
      return a.bool_value() == b.bool_value();
    case DataType::kInt64:
    case DataType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case DataType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

bool operator<(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb;
  switch (a.type()) {
    case DataType::kNull:
      return false;
    case DataType::kBool:
      return a.bool_value() < b.bool_value();
    case DataType::kInt64:
    case DataType::kDouble:
      return a.AsDouble() < b.AsDouble();
    case DataType::kString:
      return a.string_value() < b.string_value();
  }
  return false;
}

int KeyCompare(const Value& a, const Value& b) {
  const int ra = TypeRank(a.type());
  const int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type()) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return static_cast<int>(a.bool_value()) -
             static_cast<int>(b.bool_value());
    case DataType::kInt64:
    case DataType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      if (x < y) return -1;
      if (y < x) return 1;
      if (x == y) return 0;
      // Unordered: NaN sorts after every number and equals only NaN.
      return static_cast<int>(std::isnan(x)) -
             static_cast<int>(std::isnan(y));
    }
    case DataType::kString:
      return a.string_value().compare(b.string_value());
  }
  return 0;
}

size_t Value::Hash() const {
  constexpr size_t kBasis = 1469598103934665603ULL;
  constexpr size_t kPrime = 1099511628211ULL;
  size_t h = kBasis;
  auto mix = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  };
  switch (type()) {
    case DataType::kNull:
      break;
    case DataType::kBool: {
      bool b = bool_value();
      mix(&b, sizeof(b));
      break;
    }
    case DataType::kInt64:
    case DataType::kDouble: {
      // Numerically equal int/double must hash equally.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      mix(&d, sizeof(d));
      break;
    }
    case DataType::kString:
      mix(string_value().data(), string_value().size());
      break;
  }
  return h;
}

}  // namespace etlopt
