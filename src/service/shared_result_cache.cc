#include "service/shared_result_cache.h"

namespace etlopt {

namespace {

size_t ApproxValueBytes(const Value& v) {
  constexpr size_t kBase = sizeof(Value);
  if (v.type() == DataType::kString) {
    return kBase + v.string_value().size();
  }
  return kBase;
}

}  // namespace

size_t ApproxRowsBytes(const std::vector<Record>& rows) {
  size_t bytes = sizeof(std::vector<Record>);
  for (const Record& r : rows) {
    bytes += sizeof(Record);
    for (const Value& v : r.values()) bytes += ApproxValueBytes(v);
  }
  return bytes;
}

}  // namespace etlopt
