// LookupTable: one named surrogate-key lookup table (composite key ->
// surrogate id), and the hashed index the SurrogateKey kernels probe.
//
// The ordered map is the source of truth. Checkpoint and cache keys
// (ExecutionInputFingerprint, Fingerprint) walk it in key order, so its
// order is part of their bytes. The kernels never search it: they
// probe a LookupIndex, a flat open-addressing table of (key hash, entry
// pointer) built over the map's nodes at most once per table, by the
// first thread that asks for it.
//
// A LookupTable is a handle on shared storage. Copying one — and with
// it an ExecutionContext or an ExecutionInput — shares the entries and
// the index and the fingerprints instead of copying them. Every mutator
// (emplace, operator[], clear) first detaches this handle: storage that
// another copy also holds is copied, and storage held alone drops its
// index and its fingerprints. So no copy sees another copy's change, and
// no index or fingerprint ever answers for entries it was not built
// over. Write through a reference or iterator a mutator returns only
// until this table is next copied, mutated, probed or fingerprinted.

#ifndef ETLOPT_ACTIVITY_LOOKUP_TABLE_H_
#define ETLOPT_ACTIVITY_LOOKUP_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "records/source_table.h"
#include "schema/value.h"

namespace etlopt {

/// A read-only hash index over one lookup table's entries.
class LookupIndex {
 public:
  using Map = std::map<std::vector<Value>, Value>;

  /// Indexes every entry of `entries`, which must outlive the index and
  /// not change while it is used.
  explicit LookupIndex(const Map& entries);

  /// The surrogate of the entry whose key has `arity` cells, cell k
  /// hashing to `cell_hash(k)` (Value::Hash of the cell, or the
  /// bit-identical ColumnVector::CellHash) and matching by
  /// `cell_equals(k, key[k])`; nullptr if there is none. The kernels
  /// match cells by Value::operator==: the map's own equivalence (Int(2)
  /// matches Double(2.0)), except that a NaN cell equals nothing, so a
  /// NaN key misses.
  template <typename CellHash, typename CellEquals>
  const Value* Find(size_t arity, const CellHash& cell_hash,
                    const CellEquals& cell_equals) const {
    if (slots_.empty()) return nullptr;
    uint64_t hash = kHashBasis;
    for (size_t k = 0; k < arity; ++k) hash = Fold(hash, cell_hash(k));
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.entry == nullptr) return nullptr;
      if (s.hash == hash && KeyMatches(s.entry->first, arity, cell_equals)) {
        return &s.entry->second;
      }
    }
  }

 private:
  // A key's hash folds its cells' hashes into FNV.
  static constexpr uint64_t kHashBasis = 1469598103934665603ULL;
  static uint64_t Fold(uint64_t h, uint64_t cell_hash) {
    return (h ^ cell_hash) * 1099511628211ULL;
  }

  template <typename CellEquals>
  static bool KeyMatches(const std::vector<Value>& key, size_t arity,
                         const CellEquals& cell_equals) {
    if (key.size() != arity) return false;
    for (size_t k = 0; k < arity; ++k) {
      if (!cell_equals(k, key[k])) return false;
    }
    return true;
  }

  struct Slot {
    uint64_t hash = 0;
    const Map::value_type* entry = nullptr;  // nullptr: empty slot
  };
  std::vector<Slot> slots_;  // power-of-two size, load <= 3/4
  size_t mask_ = 0;
};

class LookupTable {
 public:
  using Map = LookupIndex::Map;
  using const_iterator = Map::const_iterator;

  LookupTable();
  // Copies share storage. No move operations are declared, so a move is
  // a copy and no handle is ever left without storage.
  LookupTable(const LookupTable&) = default;
  LookupTable& operator=(const LookupTable&) = default;

  /// The entries, in key order: the source of truth.
  const Map& entries() const { return storage_->entries; }
  size_t size() const { return entries().size(); }
  bool empty() const { return entries().empty(); }
  const_iterator begin() const { return entries().begin(); }
  const_iterator end() const { return entries().end(); }
  size_t count(const std::vector<Value>& key) const {
    return entries().count(key);
  }

  template <typename... Args>
  std::pair<Map::iterator, bool> emplace(Args&&... args) {
    return Detach().emplace(std::forward<Args>(args)...);
  }
  Value& operator[](const std::vector<Value>& key) { return Detach()[key]; }
  void clear() { Detach().clear(); }

  /// The hash index over entries(), built on the first call per storage
  /// and shared by every copy that shares the storage. Thread-safe: a
  /// kernel calls it once per bind, not per row.
  const LookupIndex& Index() const;

  /// Fold of every key cell's and surrogate's Value::Hash in key order:
  /// the content fingerprint the shared result cache's subgraph
  /// signatures read. Computed once per storage.
  uint64_t Fingerprint() const;

  /// The FNV state after the entries' record_io bytes, continuing from
  /// `before`: this table's part of ExecutionInputFingerprint after its
  /// name and entry count. Kept for the last `before` asked.
  uint64_t FingerprintSegment(uint64_t before) const;

 private:
  struct Storage {
    Map entries;
    std::mutex index_mu;
    std::unique_ptr<const LookupIndex> index;  // guarded by index_mu
    InputFingerprints fingerprints;
  };

  /// The entries, on storage no other handle holds and without an index
  /// or fingerprints.
  Map& Detach();

  std::shared_ptr<Storage> storage_;
};

}  // namespace etlopt

#endif  // ETLOPT_ACTIVITY_LOOKUP_TABLE_H_
