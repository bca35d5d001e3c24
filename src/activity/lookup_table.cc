#include "activity/lookup_table.h"

namespace etlopt {

LookupIndex::LookupIndex(const Map& entries) {
  if (entries.empty()) return;
  size_t capacity = 1;
  while (capacity * 3 < entries.size() * 4) capacity *= 2;
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (const Map::value_type& entry : entries) {
    uint64_t hash = kHashBasis;
    for (const Value& v : entry.first) hash = Fold(hash, v.Hash());
    size_t i = hash & mask_;
    while (slots_[i].entry != nullptr) i = (i + 1) & mask_;
    slots_[i] = Slot{hash, &entry};
  }
}

LookupTable::LookupTable() : storage_(std::make_shared<Storage>()) {}

const LookupIndex& LookupTable::Index() const {
  std::lock_guard<std::mutex> lock(storage_->index_mu);
  if (storage_->index == nullptr) {
    storage_->index = std::make_unique<LookupIndex>(storage_->entries);
  }
  return *storage_->index;
}

LookupTable::Map& LookupTable::Detach() {
  if (storage_.use_count() > 1) {
    auto copy = std::make_shared<Storage>();
    copy->entries = storage_->entries;
    storage_ = std::move(copy);
  } else {
    storage_->index.reset();
  }
  return storage_->entries;
}

}  // namespace etlopt
