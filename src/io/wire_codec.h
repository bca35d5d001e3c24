// Little-endian encode/decode helpers for the etlopt byte formats that
// carry doubles and strings: plan files (ETLPLAN1/ETLPLNS1), stream
// checkpoints (ETLSTRM1) and the network wire protocol (ETLNET1). The
// integer writers and the one bounds-checked reader, BinaryReader, live
// in records/record_io.h; these add doubles and strings on top of them.

#ifndef ETLOPT_IO_WIRE_CODEC_H_
#define ETLOPT_IO_WIRE_CODEC_H_

#include <string>
#include <string_view>

#include "common/statusor.h"
#include "records/record_io.h"

namespace etlopt {

/// Stored as the IEEE bit pattern, so the round trip is trivially exact.
void PutDouble(std::string& out, double v);
/// u32 length prefix + raw bytes.
void PutString(std::string& out, std::string_view s);

/// Reads a double written by PutDouble.
StatusOr<double> ReadDouble(BinaryReader& reader);

}  // namespace etlopt

#endif  // ETLOPT_IO_WIRE_CODEC_H_
