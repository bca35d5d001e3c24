#include "columnar/column_vector.h"

#include <cmath>
#include <limits>

#include "common/macros.h"

namespace etlopt {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Bit-identical to Value::Hash() for int/double cells: numerically equal
// int and double must hash equally, -0.0 normalizes to 0.0 and every NaN
// to the one quiet NaN.
uint64_t HashNumericCell(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  return FnvMix(kFnvBasis, &d, sizeof(d));
}

}  // namespace

ColumnVector::ColumnVector(DataType declared) : declared_(declared) {
  if (declared_ == DataType::kNull) boxed_ = true;
}

void ColumnVector::Reserve(size_t n) {
  null_.reserve(n);
  if (boxed_) {
    box_.reserve(n);
    return;
  }
  switch (declared_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    case DataType::kNull:
      break;
  }
}

void ColumnVector::Append(const Value& v) {
  const bool is_null = v.is_null();
  if (!boxed_ && !is_null && v.type() != declared_) Demote();
  null_.push_back(is_null ? 1 : 0);
  if (boxed_) {
    box_.push_back(v);
    return;
  }
  switch (declared_) {
    case DataType::kInt64:
      ints_.push_back(is_null ? 0 : v.int_value());
      break;
    case DataType::kDouble:
      doubles_.push_back(is_null ? 0.0 : v.double_value());
      break;
    case DataType::kBool:
      bools_.push_back(is_null ? 0 : (v.bool_value() ? 1 : 0));
      break;
    case DataType::kString:
      strings_.push_back(is_null ? std::string() : v.string_value());
      break;
    case DataType::kNull:
      break;  // unreachable: kNull columns are boxed on construction
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    Append(Value::Null());
    return;
  }
  // Fast path: matching non-boxed layouts copy the raw cell.
  if (!boxed_ && !src.boxed_ && src.declared_ == declared_) {
    null_.push_back(0);
    switch (declared_) {
      case DataType::kInt64:
        ints_.push_back(src.ints_[i]);
        return;
      case DataType::kDouble:
        doubles_.push_back(src.doubles_[i]);
        return;
      case DataType::kBool:
        bools_.push_back(src.bools_[i]);
        return;
      case DataType::kString:
        strings_.push_back(src.strings_[i]);
        return;
      case DataType::kNull:
        return;
    }
  }
  Append(src.ValueAt(i));
}

DataType ColumnVector::TypeAt(size_t i) const {
  if (IsNull(i)) return DataType::kNull;
  return boxed_ ? box_[i].type() : declared_;
}

Value ColumnVector::ValueAt(size_t i) const {
  if (boxed_) return box_[i];
  if (IsNull(i)) return Value::Null();
  switch (declared_) {
    case DataType::kInt64:
      return Value::Int(ints_[i]);
    case DataType::kDouble:
      return Value::Double(doubles_[i]);
    case DataType::kBool:
      return Value::Bool(bools_[i] != 0);
    case DataType::kString:
      return Value::String(strings_[i]);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

uint64_t ColumnVector::CellHash(size_t i) const {
  if (boxed_) return box_[i].Hash();
  if (IsNull(i)) return kFnvBasis;
  switch (declared_) {
    case DataType::kInt64:
      return HashNumericCell(static_cast<double>(ints_[i]));
    case DataType::kDouble:
      return HashNumericCell(doubles_[i]);
    case DataType::kBool: {
      bool b = bools_[i] != 0;
      return FnvMix(kFnvBasis, &b, sizeof(b));
    }
    case DataType::kString:
      return FnvMix(kFnvBasis, strings_[i].data(), strings_[i].size());
    case DataType::kNull:
      break;
  }
  return kFnvBasis;
}

bool ColumnVector::CellEquals(size_t i, const Value& v) const {
  if (boxed_) return box_[i] == v;
  if (IsNull(i)) return v.is_null();
  const DataType t = v.type();
  switch (declared_) {
    case DataType::kInt64:
    case DataType::kDouble: {
      if (t != DataType::kInt64 && t != DataType::kDouble) return false;
      const double cell = declared_ == DataType::kInt64
                              ? static_cast<double>(ints_[i])
                              : doubles_[i];
      return cell == v.AsDouble();
    }
    case DataType::kBool:
      return t == DataType::kBool && (bools_[i] != 0) == v.bool_value();
    case DataType::kString:
      return t == DataType::kString && strings_[i] == v.string_value();
    case DataType::kNull:
      break;
  }
  return v.is_null();
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  ColumnVector out(declared_);
  out.boxed_ = boxed_;
  out.Reserve(sel.size());
  if (boxed_) {
    for (uint32_t i : sel) {
      out.null_.push_back(null_[i]);
      out.box_.push_back(box_[i]);
    }
    return out;
  }
  for (uint32_t i : sel) out.null_.push_back(null_[i]);
  switch (declared_) {
    case DataType::kInt64:
      for (uint32_t i : sel) out.ints_.push_back(ints_[i]);
      break;
    case DataType::kDouble:
      for (uint32_t i : sel) out.doubles_.push_back(doubles_[i]);
      break;
    case DataType::kBool:
      for (uint32_t i : sel) out.bools_.push_back(bools_[i]);
      break;
    case DataType::kString:
      for (uint32_t i : sel) out.strings_.push_back(strings_[i]);
      break;
    case DataType::kNull:
      break;
  }
  return out;
}

void ColumnVector::Demote() {
  ETLOPT_CHECK(!boxed_);
  box_.reserve(null_.size());
  for (size_t i = 0; i < null_.size(); ++i) box_.push_back(ValueAt(i));
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  boxed_ = true;
}

}  // namespace etlopt
