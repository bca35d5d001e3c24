#include "engine/partition.h"

#include <algorithm>

#include "common/macros.h"
#include "engine/thread_pool.h"

namespace etlopt {

std::vector<Morsel> MakeMorsels(size_t n, size_t morsel_size) {
  morsel_size = std::max<size_t>(1, morsel_size);
  std::vector<Morsel> morsels;
  morsels.reserve(n / morsel_size + 1);
  for (size_t begin = 0; begin < n; begin += morsel_size) {
    morsels.push_back({begin, std::min(n, begin + morsel_size)});
  }
  return morsels;
}

std::optional<std::vector<std::string>> PartitionKeysFor(
    const Activity& activity) {
  switch (activity.kind()) {
    case ActivityKind::kPrimaryKeyCheck:
      return activity.params_as<PrimaryKeyParams>().key_attrs;
    case ActivityKind::kAggregation:
      return activity.params_as<AggregationParams>().group_by;
    case ActivityKind::kJoin:
      return activity.params_as<JoinParams>().key_attrs;
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      // Rows interact iff equal: partition on the whole record.
      return std::vector<std::string>{};
    default:
      return std::nullopt;
  }
}

bool IsStreamingKind(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kSelection:
    case ActivityKind::kNotNull:
    case ActivityKind::kDomainCheck:
    case ActivityKind::kProjection:
    case ActivityKind::kFunction:
    case ActivityKind::kSurrogateKey:
    case ActivityKind::kUnion:
      return true;
    default:
      return false;
  }
}

namespace {

// 64-bit finalizer (splitmix64) decorrelates Value::Hash outputs before
// the modulo so consecutive integer keys spread over partitions.
inline uint64_t Mix(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

size_t PartitionOfKey(const Record& row, const std::vector<size_t>& key_idx,
                      size_t num_partitions) {
  uint64_t h;
  if (key_idx.empty()) {
    h = row.Hash();
  } else {
    h = 1469598103934665603ULL;  // FNV offset basis
    for (size_t k : key_idx) {
      h = (h ^ row.value(k).Hash()) * 1099511628211ULL;
    }
  }
  return Mix(h) % std::max<size_t>(1, num_partitions);
}

StatusOr<PartitionIndices> HashPartitionIndices(
    const std::vector<Record>& rows, const Schema& schema,
    const std::vector<std::string>& key_attrs, size_t num_partitions,
    size_t morsel_size, ThreadPool* pool) {
  num_partitions = std::max<size_t>(1, num_partitions);
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                          AttrIndices(schema, key_attrs));

  if (num_partitions == 1) {
    PartitionIndices out(1);
    out[0].resize(rows.size());
    for (uint32_t i = 0; i < rows.size(); ++i) out[0][i] = i;
    return out;
  }

  // Phase 1 (morsel-parallel): each morsel scatters its row indices into
  // private buckets, preserving input order within the morsel.
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), morsel_size);
  std::vector<PartitionIndices> local(morsels.size());
  ETLOPT_RETURN_NOT_OK(pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t) -> Status {
        PartitionIndices& buckets = local[m];
        buckets.assign(num_partitions, {});
        for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
          buckets[PartitionOfKey(rows[i], key_idx, num_partitions)].push_back(
              static_cast<uint32_t>(i));
        }
        return Status::OK();
      }));

  // Phase 2 (partition-parallel): concatenate each partition's buckets in
  // morsel order, which keeps indices ascending.
  PartitionIndices out(num_partitions);
  ETLOPT_RETURN_NOT_OK(pool->ParallelFor(
      num_partitions, [&](size_t p, size_t) -> Status {
        size_t total = 0;
        for (const auto& buckets : local) total += buckets[p].size();
        out[p].reserve(total);
        for (const auto& buckets : local) {
          out[p].insert(out[p].end(), buckets[p].begin(), buckets[p].end());
        }
        return Status::OK();
      }));
  return out;
}

PartitionIndices RoundRobinPartitionIndices(size_t num_rows,
                                            size_t num_partitions) {
  num_partitions = std::max<size_t>(1, num_partitions);
  PartitionIndices out(num_partitions);
  for (auto& p : out) p.reserve(num_rows / num_partitions + 1);
  for (size_t i = 0; i < num_rows; ++i) {
    out[i % num_partitions].push_back(static_cast<uint32_t>(i));
  }
  return out;
}

}  // namespace etlopt
