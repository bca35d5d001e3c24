#include "engine/parallel.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "engine/node_driver.h"
#include "engine/partition.h"
#include "engine/shared_cache_exec.h"
#include "engine/thread_pool.h"

namespace etlopt {

namespace {

constexpr size_t kDefaultMorselSize = 2048;

// Shared run state threaded through the per-operator helpers.
struct Engine {
  ThreadPool* pool = nullptr;
  size_t morsel_size = kDefaultMorselSize;
  size_t num_partitions = 1;
  const ExecutionContext* ctx = nullptr;
  ParallelStats* stats = nullptr;

  // Per-worker row counter; indexed by worker, so tasks never contend.
  void CountRows(size_t worker, size_t n) const {
    stats->worker_rows[worker] += n;
  }
};

// Concatenates per-task outputs in task order.
std::vector<Record> Concat(std::vector<std::vector<Record>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<Record> out;
  out.reserve(total);
  for (auto& p : parts) {
    for (auto& r : p) out.push_back(std::move(r));
  }
  return out;
}

// Copies (and optionally re-lays-out) `rows` morsel-parallel. With
// from == to this is a parallel copy; otherwise each row is rebuilt in
// `to`'s attribute order, exactly like the serial engines' realign.
StatusOr<std::vector<Record>> ParallelRealign(const Engine& eng,
                                              const std::vector<Record>& rows,
                                              const Schema& from,
                                              const Schema& to) {
  const bool identity = from == to;
  std::vector<size_t> mapping;
  if (!identity) {
    ETLOPT_ASSIGN_OR_RETURN(mapping, ColumnMapping(from, to));
  }
  std::vector<Record> out(rows.size());
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), eng.morsel_size);
  eng.stats->streaming_morsels += morsels.size();
  eng.stats->streamed_rows += rows.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t worker) -> Status {
        for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
          if (identity) {
            out[i] = rows[i];
          } else {
            out[i] = Realign(rows[i], mapping);
          }
        }
        eng.CountRows(worker, morsels[m].size());
        return Status::OK();
      }));
  return out;
}

// Streaming unary activity: data-parallel over morsels, per-morsel
// batches delegated to Activity::Execute (the reference semantics, so
// the engines cannot diverge on per-row behaviour).
// Filters and 1:1 transforms preserve input order within a morsel, and
// morsel outputs concatenate in morsel order, so the result is exactly
// the serial output. An empty input still runs the kernel once, so its
// up-front checks (an unbound lookup table) fail as on the serial engine.
StatusOr<std::vector<Record>> RunStreaming(const Engine& eng,
                                           const Activity& activity,
                                           const Schema& in_schema,
                                           const std::vector<Record>& rows) {
  if (rows.empty()) return activity.Execute({in_schema}, {{}}, *eng.ctx);
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), eng.morsel_size);
  eng.stats->streaming_morsels += morsels.size();
  eng.stats->streamed_rows += rows.size();
  std::vector<std::vector<Record>> outs(morsels.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t worker) -> Status {
        std::vector<std::vector<Record>> input(1);
        input[0].assign(rows.begin() + morsels[m].begin,
                        rows.begin() + morsels[m].end);
        ETLOPT_ASSIGN_OR_RETURN(
            outs[m], activity.Execute({in_schema}, input, *eng.ctx));
        eng.CountRows(worker, morsels[m].size());
        return Status::OK();
      }));
  return Concat(outs);
}

// Union: left rows followed by the right rows realigned into the output
// layout — both sides copied morsel-parallel into their final slots.
StatusOr<std::vector<Record>> RunUnion(const Engine& eng,
                                       const std::vector<Schema>& in_schemas,
                                       const Schema& out_schema,
                                       const std::vector<Record>& left,
                                       const std::vector<Record>& right) {
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_map,
                          ColumnMapping(in_schemas[1], out_schema));
  std::vector<Record> out(left.size() + right.size());
  std::vector<Morsel> lm = MakeMorsels(left.size(), eng.morsel_size);
  std::vector<Morsel> rm = MakeMorsels(right.size(), eng.morsel_size);
  eng.stats->streaming_morsels += lm.size() + rm.size();
  eng.stats->streamed_rows += out.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      lm.size() + rm.size(), [&](size_t t, size_t worker) -> Status {
        if (t < lm.size()) {
          for (size_t i = lm[t].begin; i < lm[t].end; ++i) out[i] = left[i];
          eng.CountRows(worker, lm[t].size());
        } else {
          const Morsel& m = rm[t - lm.size()];
          for (size_t i = m.begin; i < m.end; ++i) {
            out[left.size() + i] = Realign(right[i], right_map);
          }
          eng.CountRows(worker, m.size());
        }
        return Status::OK();
      }));
  return out;
}

// Duplicate elimination: hash-exchange on the key attributes, keep-first
// per partition (each partition sees its rows in input order), then
// rebuild the kept rows in input order from the survivor bitmap.
StatusOr<std::vector<Record>> RunPkCheck(const Engine& eng,
                                         const Activity& activity,
                                         const Schema& in_schema,
                                         const std::vector<Record>& rows) {
  const auto& p = activity.params_as<PrimaryKeyParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                          AttrIndices(in_schema, p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(rows, in_schema, p.key_attrs, eng.num_partitions,
                           eng.morsel_size, eng.pool));
  eng.stats->exchange_partitions += parts.size();
  eng.stats->exchanged_rows += rows.size();
  std::vector<uint8_t> keep(rows.size(), 0);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t worker) -> Status {
        std::map<std::vector<Value>, bool> seen;
        for (uint32_t i : parts[pt]) {
          if (seen.emplace(ExtractKey(rows[i], key_idx), true).second) {
            keep[i] = 1;
          }
        }
        eng.CountRows(worker, parts[pt].size());
        return Status::OK();
      }));
  std::vector<Record> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (keep[i]) out.push_back(rows[i]);
  }
  return out;
}

// Aggregation: hash-exchange on the group-by keys so every partition
// owns a disjoint set of groups; per-partition Execute yields key-sorted
// groups (Activity::Execute uses an ordered map), and a k-way merge on
// the key prefix restores the serial engines' global key order.
StatusOr<std::vector<Record>> RunAggregation(const Engine& eng,
                                             const Activity& activity,
                                             const Schema& in_schema,
                                             const std::vector<Record>& rows) {
  const auto& p = activity.params_as<AggregationParams>();
  if (p.group_by.empty()) {
    // One global group: nothing to exchange on.
    eng.stats->exchange_partitions += 1;
    eng.stats->exchanged_rows += rows.size();
    std::vector<std::vector<Record>> input(1);
    input[0] = rows;
    return activity.Execute({in_schema}, input, *eng.ctx);
  }
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(rows, in_schema, p.group_by, eng.num_partitions,
                           eng.morsel_size, eng.pool));
  eng.stats->exchange_partitions += parts.size();
  eng.stats->exchanged_rows += rows.size();
  std::vector<std::vector<Record>> outs(parts.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t worker) -> Status {
        if (parts[pt].empty()) return Status::OK();
        std::vector<std::vector<Record>> input(1);
        input[0].reserve(parts[pt].size());
        for (uint32_t i : parts[pt]) input[0].push_back(rows[i]);
        ETLOPT_ASSIGN_OR_RETURN(
            outs[pt], activity.Execute({in_schema}, input, *eng.ctx));
        eng.CountRows(worker, parts[pt].size());
        return Status::OK();
      }));

  // Merge the key-sorted partition outputs. Group keys are the leading
  // values of every output record and are disjoint across partitions.
  const size_t g = p.group_by.size();
  auto key_less = [g](const Record& a, const Record& b) {
    for (size_t i = 0; i < g; ++i) {
      if (a.value(i) < b.value(i)) return true;
      if (b.value(i) < a.value(i)) return false;
    }
    return false;
  };
  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<Record> out;
  out.reserve(total);
  std::vector<size_t> pos(outs.size(), 0);
  while (out.size() < total) {
    size_t best = outs.size();
    for (size_t pt = 0; pt < outs.size(); ++pt) {
      if (pos[pt] >= outs[pt].size()) continue;
      if (best == outs.size() ||
          key_less(outs[pt][pos[pt]], outs[best][pos[best]])) {
        best = pt;
      }
    }
    out.push_back(std::move(outs[best][pos[best]]));
    ++pos[best];
  }
  return out;
}

// Join: partition the build (right) side on the join keys, build one hash
// index per partition in parallel, then probe the left side
// morsel-parallel in input order. Matches are emitted in build-side input
// order per key, so the concatenated morsel outputs replay the serial
// nested emit exactly.
StatusOr<std::vector<Record>> RunJoin(const Engine& eng,
                                      const Activity& activity,
                                      const std::vector<Schema>& in_schemas,
                                      const std::vector<Record>& left,
                                      const std::vector<Record>& right) {
  const auto& p = activity.params_as<JoinParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_key,
                          AttrIndices(in_schemas[0], p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_key,
                          AttrIndices(in_schemas[1], p.key_attrs));
  const std::vector<size_t> right_pass =
      JoinPassthrough(in_schemas[1], p.key_attrs);

  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(right, in_schemas[1], p.key_attrs,
                           eng.num_partitions, eng.morsel_size, eng.pool));
  eng.stats->exchange_partitions += parts.size();
  eng.stats->exchanged_rows += left.size() + right.size();

  using ShardIndex = std::map<std::vector<Value>, std::vector<uint32_t>>;
  std::vector<ShardIndex> shards(parts.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t worker) -> Status {
        for (uint32_t i : parts[pt]) {
          std::vector<Value> key = ExtractKey(right[i], right_key);
          if (HasNull(key)) continue;  // NULL keys never join
          shards[pt][std::move(key)].push_back(i);
        }
        eng.CountRows(worker, parts[pt].size());
        return Status::OK();
      }));

  std::vector<Morsel> morsels = MakeMorsels(left.size(), eng.morsel_size);
  eng.stats->streaming_morsels += morsels.size();
  std::vector<std::vector<Record>> outs(morsels.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t worker) -> Status {
        std::vector<Record>& out = outs[m];
        for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
          std::vector<Value> key = ExtractKey(left[i], left_key);
          if (HasNull(key)) continue;
          const ShardIndex& shard =
              shards[PartitionOfKey(left[i], left_key, parts.size())];
          auto hit = shard.find(key);
          if (hit == shard.end()) continue;
          for (uint32_t r : hit->second) {
            Record nr = left[i];
            for (size_t src : right_pass) nr.Append(right[r].value(src));
            out.push_back(std::move(nr));
          }
        }
        eng.CountRows(worker, morsels[m].size());
        return Status::OK();
      }));
  return Concat(outs);
}

// Bag difference / intersection: realign the right side into the output
// layout, exchange *both* sides on the whole record (equal records land
// in the same partition), replay the serial count-and-decrement logic per
// partition over ascending row indices, and rebuild the kept left rows in
// input order.
StatusOr<std::vector<Record>> RunDiffIntersect(
    const Engine& eng, const Activity& activity,
    const std::vector<Schema>& in_schemas, const Schema& out_schema,
    const std::vector<Record>& left, const std::vector<Record>& right) {
  ETLOPT_ASSIGN_OR_RETURN(
      std::vector<Record> right_aligned,
      ParallelRealign(eng, right, in_schemas[1], out_schema));
  const std::vector<std::string> whole_record;  // empty = whole record
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices left_parts,
      HashPartitionIndices(left, in_schemas[0], whole_record,
                           eng.num_partitions, eng.morsel_size, eng.pool));
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices right_parts,
      HashPartitionIndices(right_aligned, out_schema, whole_record,
                           eng.num_partitions, eng.morsel_size, eng.pool));
  eng.stats->exchange_partitions += left_parts.size();
  eng.stats->exchanged_rows += left.size() + right_aligned.size();

  const bool keep_matched = activity.kind() == ActivityKind::kIntersection;
  std::vector<uint8_t> keep(left.size(), 0);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      left_parts.size(), [&](size_t pt, size_t worker) -> Status {
        std::map<Record, int64_t> right_counts;
        for (uint32_t i : right_parts[pt]) ++right_counts[right_aligned[i]];
        for (uint32_t i : left_parts[pt]) {
          auto it = right_counts.find(left[i]);
          bool matched = it != right_counts.end() && it->second > 0;
          if (matched) --it->second;
          if (matched == keep_matched) keep[i] = 1;
        }
        eng.CountRows(worker,
                      left_parts[pt].size() + right_parts[pt].size());
        return Status::OK();
      }));
  std::vector<Record> out;
  for (size_t i = 0; i < left.size(); ++i) {
    if (keep[i]) out.push_back(left[i]);
  }
  return out;
}

StatusOr<std::vector<Record>> RunMember(const Engine& eng,
                                        const Activity& activity,
                                        const std::vector<Schema>& in_schemas,
                                        const std::vector<Record>& left,
                                        const std::vector<Record>* right) {
  ETLOPT_ASSIGN_OR_RETURN(Schema out_schema,
                          activity.ComputeOutputSchema(in_schemas));
  switch (activity.kind()) {
    case ActivityKind::kUnion:
      return RunUnion(eng, in_schemas, out_schema, left, *right);
    case ActivityKind::kJoin:
      return RunJoin(eng, activity, in_schemas, left, *right);
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      return RunDiffIntersect(eng, activity, in_schemas, out_schema, left,
                              *right);
    case ActivityKind::kPrimaryKeyCheck:
      return RunPkCheck(eng, activity, in_schemas[0], left);
    case ActivityKind::kAggregation:
      return RunAggregation(eng, activity, in_schemas[0], left);
    default:
      return RunStreaming(eng, activity, in_schemas[0], left);
  }
}

// The parallel engine's per-node strategy for the node driver: rows
// move between nodes as materialized vectors, but sources and realigns
// copy morsel-parallel and chain members run through RunMember.
class ParallelStrategy {
 public:
  using Flow = std::vector<Record>;

  explicit ParallelStrategy(const Engine& eng) : eng_(eng) {}

  StatusOr<Flow> Source(const Schema& schema, const Flow& rows) {
    return ParallelRealign(eng_, rows, schema, schema);
  }
  StatusOr<Flow> FromRows(const Schema&, Flow rows) { return rows; }
  StatusOr<Flow> Realign(Flow rows, const Schema& from, const Schema& to) {
    if (from == to) return rows;
    return ParallelRealign(eng_, rows, from, to);
  }
  // Runs the chain member by member; the first member may be binary,
  // later members are unary by the chain invariant.
  StatusOr<Flow> RunChain(NodeId, const ActivityChain& chain,
                          const std::vector<Schema>& in_schemas,
                          const std::vector<Flow>& inputs) {
    Flow cur;
    Schema cur_schema;
    for (size_t m = 0; m < chain.size(); ++m) {
      const Activity& member = chain.members()[m].activity;
      std::vector<Schema> member_schemas =
          m == 0 ? in_schemas : std::vector<Schema>{cur_schema};
      const Flow& left = m == 0 ? inputs[0] : cur;
      const Flow* right =
          (m == 0 && member.is_binary()) ? &inputs[1] : nullptr;
      ETLOPT_ASSIGN_OR_RETURN(
          Flow rows, RunMember(eng_, member, member_schemas, left, right));
      ETLOPT_ASSIGN_OR_RETURN(cur_schema,
                              member.ComputeOutputSchema(member_schemas));
      cur = std::move(rows);
    }
    return cur;
  }
  static size_t Rows(const Flow& rows) { return rows.size(); }

 private:
  const Engine& eng_;
};

}  // namespace

StatusOr<ExecutionResult> ExecuteParallel(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const ParallelOptions& options,
                                          ParallelStats* stats) {
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  const size_t threads = options.num_threads != 0
                             ? options.num_threads
                             : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  ParallelStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ParallelStats{};
  stats->num_threads = pool.num_threads();
  stats->worker_rows.assign(pool.num_threads(), 0);

  Engine eng;
  eng.pool = &pool;
  eng.morsel_size =
      options.morsel_size != 0 ? options.morsel_size : kDefaultMorselSize;
  eng.num_partitions =
      options.num_partitions != 0
          ? options.num_partitions
          : std::min<size_t>(64, pool.num_threads() * 4);
  eng.ctx = &input.context;
  eng.stats = stats;

  CachePlan plan(workflow, input, options.cache);
  ParallelStrategy strategy(eng);
  return DriveNodes(workflow, input, strategy, plan);
}

}  // namespace etlopt
