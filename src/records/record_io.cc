#include "records/record_io.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutDouble(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out += s;
}

void PutValue(std::string& out, const Value& v) {
  out.push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      out.push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.int_value()));
      break;
    case DataType::kDouble:
      PutDouble(out, v.double_value());
      break;
    case DataType::kString:
      PutString(out, v.string_value());
      break;
  }
}

void PutValues(std::string& out, const std::vector<Value>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) PutValue(out, v);
}

void PutRecord(std::string& out, const Record& record) {
  PutValues(out, record.values());
}

void PutRecords(std::string& out, const std::vector<Record>& rows) {
  PutU64(out, rows.size());
  for (const Record& r : rows) PutRecord(out, r);
}

void PutRowsOut(std::string& out, const std::map<int, size_t>& rows_out) {
  PutU32(out, static_cast<uint32_t>(rows_out.size()));
  for (const auto& [node, count] : rows_out) {
    PutU32(out, static_cast<uint32_t>(node));
    PutU64(out, count);
  }
}

std::string SealPayload(std::string_view magic, std::string_view payload) {
  std::string out(magic);
  PutU64(out, payload.size());
  out += payload;
  PutU64(out, Fnv1a64(payload));
  return out;
}

StatusOr<uint8_t> BinaryReader::U8() {
  ETLOPT_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(bytes_[pos_++]);
}

StatusOr<uint32_t> BinaryReader::U32() {
  ETLOPT_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> BinaryReader::U64() {
  ETLOPT_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<std::string> BinaryReader::String() {
  ETLOPT_ASSIGN_OR_RETURN(uint32_t n, U32());
  ETLOPT_RETURN_NOT_OK(Need(n));
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

StatusOr<std::string_view> BinaryReader::Bytes(size_t n) {
  ETLOPT_RETURN_NOT_OK(Need(n));
  std::string_view v = bytes_.substr(pos_, n);
  pos_ += n;
  return v;
}

Status BinaryReader::Need(size_t n) {
  if (n > bytes_.size() - pos_) {
    return Status::InvalidArgument("truncated binary input");
  }
  return Status::OK();
}

StatusOr<double> ReadDouble(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t bits, reader.U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<Value> ReadValue(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      ETLOPT_ASSIGN_OR_RETURN(uint8_t b, reader.U8());
      if (b > 1) return Status::InvalidArgument("checkpoint: bad bool cell");
      return Value::Bool(b == 1);
    }
    case DataType::kInt64: {
      ETLOPT_ASSIGN_OR_RETURN(uint64_t bits, reader.U64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case DataType::kDouble: {
      ETLOPT_ASSIGN_OR_RETURN(double d, ReadDouble(reader));
      return Value::Double(d);
    }
    case DataType::kString: {
      ETLOPT_ASSIGN_OR_RETURN(std::string s, reader.String());
      return Value::String(std::move(s));
    }
  }
  return Status::InvalidArgument(
      StrFormat("checkpoint: bad value tag %u", tag));
}

StatusOr<std::vector<Value>> ReadValues(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint32_t n, reader.U32());
  std::vector<Value> values;
  // Every cell takes at least its tag byte.
  values.reserve(std::min<size_t>(n, reader.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
    values.push_back(std::move(v));
  }
  return values;
}

StatusOr<Record> ReadRecord(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(std::vector<Value> values, ReadValues(reader));
  return Record(std::move(values));
}

StatusOr<std::vector<Record>> ReadRecords(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  std::vector<Record> rows;
  // Bound the reserve by what the input could possibly hold (each row
  // costs at least 4 bytes), so a corrupt count cannot force a huge
  // allocation before the per-row bounds checks fire.
  rows.reserve(static_cast<size_t>(
      std::min<uint64_t>(n, reader.remaining() / 4)));
  for (uint64_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Record r, ReadRecord(reader));
    rows.push_back(std::move(r));
  }
  return rows;
}

StatusOr<std::map<int, size_t>> ReadRowsOut(BinaryReader& reader) {
  std::map<int, size_t> rows_out;
  ETLOPT_ASSIGN_OR_RETURN(uint32_t n, reader.U32());
  for (uint32_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(uint32_t node, reader.U32());
    ETLOPT_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
    rows_out[static_cast<int>(node)] = static_cast<size_t>(count);
  }
  return rows_out;
}

StatusOr<std::string_view> UnsealPayload(std::string_view bytes,
                                         std::string_view magic,
                                         const char* what) {
  if (bytes.size() < magic.size() + 16 ||
      bytes.substr(0, magic.size()) != magic) {
    return Status::InvalidArgument(
        StrFormat("%s: bad magic or truncated file", what));
  }
  BinaryReader reader(bytes.substr(magic.size()));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t payload_size, reader.U64());
  if (payload_size != reader.remaining() - 8) {
    return Status::InvalidArgument(
        StrFormat("%s: length mismatch (truncated)", what));
  }
  ETLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          reader.Bytes(payload_size));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t recorded_checksum, reader.U64());
  if (Fnv1a64(payload) != recorded_checksum) {
    return Status::InvalidArgument(StrFormat("%s: checksum mismatch", what));
  }
  return payload;
}

}  // namespace etlopt
