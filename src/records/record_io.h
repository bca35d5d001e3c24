// Binary codec: the little-endian, length-prefixed integer, double,
// string and cell encoding shared by every etlopt byte format — ETLCKPT1
// recovery checkpoints, ETLSTRM1 stream-state checkpoints,
// ETLPLAN1/ETLPLNS1 plan files, ETLNET1 frames, and the execution-input
// fingerprint. Doubles are encoded as bit patterns, so every round trip
// is exact. The one reader, BinaryReader, bounds-checks every access
// and fails with a clean Status on truncation or garbage, so corrupt
// input can never read past the end or force a huge allocation.

#ifndef ETLOPT_RECORDS_RECORD_IO_H_
#define ETLOPT_RECORDS_RECORD_IO_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "records/record.h"
#include "schema/value.h"

namespace etlopt {

// ---- writers (append to a byte string) ----

void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);

/// Stored as the IEEE bit pattern, so the round trip is trivially exact.
void PutDouble(std::string& out, double v);
/// u32 length prefix + raw bytes.
void PutString(std::string& out, std::string_view s);

/// Tag + payload per cell; doubles as bit patterns.
void PutValue(std::string& out, const Value& v);

/// Arity-prefixed sequence of cells: a record, or a key.
void PutValues(std::string& out, const std::vector<Value>& values);
void PutRecord(std::string& out, const Record& record);

/// u64 count + that many records.
void PutRecords(std::string& out, const std::vector<Record>& rows);

/// Per-node row counts (the rows_out section of ETLCKPT1 and ETLSTRM1):
/// u32 count, then (u32 node id, u64 rows) per entry.
void PutRowsOut(std::string& out, const std::map<int, size_t>& rows_out);

/// The checksummed container of the ETLCKPT1, ETLSTRM1 and ETLPLNS1
/// files: 8-byte magic | u64 payload length | payload |
/// u64 FNV-1a(payload).
std::string SealPayload(std::string_view magic, std::string_view payload);

// ---- reader ----

/// Cursor over a byte buffer; every accessor bounds-checks and returns
/// InvalidArgument on truncated input.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  StatusOr<uint8_t> U8();
  StatusOr<uint32_t> U32();
  StatusOr<uint64_t> U64();
  StatusOr<std::string> String();
  /// The next `n` raw bytes, as a view into the buffer.
  StatusOr<std::string_view> Bytes(size_t n);

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

StatusOr<double> ReadDouble(BinaryReader& reader);
StatusOr<Value> ReadValue(BinaryReader& reader);
StatusOr<std::vector<Value>> ReadValues(BinaryReader& reader);
StatusOr<Record> ReadRecord(BinaryReader& reader);
StatusOr<std::vector<Record>> ReadRecords(BinaryReader& reader);
StatusOr<std::map<int, size_t>> ReadRowsOut(BinaryReader& reader);

/// Checks a SealPayload buffer's magic, length and checksum and returns
/// its payload. Error messages start with `what` ("checkpoint", ...).
StatusOr<std::string_view> UnsealPayload(std::string_view bytes,
                                         std::string_view magic,
                                         const char* what);

}  // namespace etlopt

#endif  // ETLOPT_RECORDS_RECORD_IO_H_
