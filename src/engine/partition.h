// Hash / round-robin partitioning of record batches for the parallel
// engine (src/engine/parallel.h).
//
// The partitioning is keyed on activity semantics: a blocking activity is
// only correct per-partition if every pair of rows that can interact
// lands in the same partition. PartitionKeysFor() encodes that rule per
// template — aggregation exchanges on its group-by attributes, duplicate
// elimination on its key attributes, join build/probe sides on the join
// keys, and bag difference/intersection on the whole record (two rows
// interact iff they are equal). Streaming templates return nullopt: they
// need no exchange and run morsel-parallel instead.
//
// Partitions are materialized as *row indices* in ascending order, never
// as reordered rows: the engine reconstructs the serial engines' exact
// output order from those indices, which is what makes ExecuteParallel
// byte-identical to ExecuteWorkflow at any thread or partition count.

#ifndef ETLOPT_ENGINE_PARTITION_H_
#define ETLOPT_ENGINE_PARTITION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "activity/activity.h"
#include "activity/binding.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

class ThreadPool;

/// Row indices owned by each partition, ascending within a partition.
using PartitionIndices = std::vector<std::vector<uint32_t>>;

/// A half-open morsel of row indices [begin, end).
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, n) into morsels of at most `morsel_size` rows.
std::vector<Morsel> MakeMorsels(size_t n, size_t morsel_size);

/// The exchange keys a blocking activity needs, or nullopt when the
/// activity streams (is data-parallel over arbitrary morsels). An engaged
/// but *empty* vector means "partition on the whole record"
/// (difference/intersection) — except for aggregation, where an empty
/// group-by list means a single global group and therefore a single
/// partition.
std::optional<std::vector<std::string>> PartitionKeysFor(
    const Activity& activity);

/// True for templates whose per-row work is independent of other rows.
bool IsStreamingKind(ActivityKind kind);

/// The partition a row routes to under HashPartitionIndices' hash, given
/// the positional indices of the key attributes within the row's schema
/// (empty = hash the whole record). Probe sides of joins use this to find
/// the shard a build row landed in.
size_t PartitionOfKey(const Record& row, const std::vector<size_t>& key_idx,
                      size_t num_partitions);

/// Hashes the values of `key_attrs` (all values when `key_attrs` is
/// empty) for every row and scatters row indices into `num_partitions`
/// buckets, morsel-parallel over `pool`. Index order inside each bucket
/// is ascending (i.e. input order), so per-partition processing sees rows
/// in the same relative order the serial engines do. Fails if a key
/// attribute is missing from `schema`.
StatusOr<PartitionIndices> HashPartitionIndices(
    const std::vector<Record>& rows, const Schema& schema,
    const std::vector<std::string>& key_attrs, size_t num_partitions,
    size_t morsel_size, ThreadPool* pool);

/// Round-robin variant used where no key constrains placement (load
/// balancing only). Same ordering guarantees as the hash variant.
PartitionIndices RoundRobinPartitionIndices(size_t num_rows,
                                            size_t num_partitions);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARTITION_H_
