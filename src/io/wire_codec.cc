#include "io/wire_codec.h"

#include <cstring>

#include "common/macros.h"

namespace etlopt {

void PutDouble(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out += s;
}

StatusOr<double> ReadDouble(BinaryReader& reader) {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t bits, reader.U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace etlopt
