#include "records/source_table.h"

#include <string>

#include "common/string_util.h"
#include "records/record_io.h"

namespace etlopt {

SourceTable::SourceTable() : storage_(std::make_shared<Storage>()) {}

SourceTable::SourceTable(std::vector<Record> rows) : SourceTable() {
  storage_->rows = std::move(rows);
}

SourceTable::SourceTable(std::initializer_list<Record> rows) : SourceTable() {
  storage_->rows = rows;
}

uint64_t SourceTable::Fingerprint() const {
  return storage_->fingerprints.Content([this] {
    uint64_t h = Fnv1a64U64(rows().size(), kFnv1aBasis);
    for (const Record& r : rows()) {
      h = Fnv1a64U64(r.size(), h);
      for (const Value& v : r.values()) h = Fnv1a64U64(v.Hash(), h);
    }
    return h;
  });
}

uint64_t SourceTable::FingerprintSegment(uint64_t before) const {
  return storage_->fingerprints.Segment(before, [this](uint64_t h) {
    std::string buf;
    for (const Record& r : rows()) {
      PutRecord(buf, r);
      h = Fnv1a64(buf, h);
      buf.clear();
    }
    return h;
  });
}

std::vector<Record>& SourceTable::Detach() {
  if (storage_.use_count() > 1) {
    auto copy = std::make_shared<Storage>();
    copy->rows = storage_->rows;
    storage_ = std::move(copy);
  } else {
    storage_->fingerprints.Clear();
  }
  return storage_->rows;
}

}  // namespace etlopt
