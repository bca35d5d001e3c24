#include "engine/vectorized.h"

#include <algorithm>
#include <map>
#include <utility>

#include "columnar/kernels.h"
#include "columnar/record_batch.h"
#include "columnar/vector_eval.h"
#include "common/macros.h"
#include "engine/node_driver.h"
#include "engine/shared_cache_exec.h"
#include "engine/thread_pool.h"
#include "fault/fault_injector.h"

namespace etlopt {

namespace {

using BatchVec = std::vector<RecordBatch>;

// Shared run state threaded through the per-operator helpers.
struct VEngine {
  ThreadPool* pool = nullptr;
  size_t batch_size = kDefaultBatchSize;
  size_t num_partitions = 1;
  const ExecutionContext* ctx = nullptr;
  VectorizedStats* stats = nullptr;
};

size_t TotalRows(const BatchVec& batches) {
  size_t n = 0;
  for (const auto& b : batches) n += b.num_rows();
  return n;
}

// Empty batches are content-neutral; dropping them keeps task counts
// proportional to data, not to upstream batch boundaries.
void DropEmptyBatches(BatchVec* batches) {
  batches->erase(std::remove_if(batches->begin(), batches->end(),
                                [](const RecordBatch& b) {
                                  return b.num_rows() == 0;
                                }),
                 batches->end());
}

// Batches `rows` (one task per batch) under `schema`.
StatusOr<BatchVec> MakeBatches(const VEngine& eng, const Schema& schema,
                               const std::vector<Record>& rows) {
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), eng.batch_size);
  eng.stats->batches += morsels.size();
  BatchVec out(morsels.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        out[m] = RecordBatch::FromRows(schema, rows, morsels[m].begin,
                                       morsels[m].end);
        return Status::OK();
      }));
  return out;
}

// A 1:1 kind: one task per batch, each batch moved into its kernel and
// replaced by the kernel's output. ParallelFor reports the failing batch
// with the smallest index, and a kernel fails at its first failing row,
// so the Status is the one the row engines raise at the first failing
// row in flow order.
template <typename MapFn>
StatusOr<BatchVec> RunMap(const VEngine& eng, BatchVec batches,
                          const MapFn& map_batch) {
  eng.stats->batches += batches.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      batches.size(), [&](size_t b, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        ETLOPT_ASSIGN_OR_RETURN(batches[b], map_batch(std::move(batches[b])));
        return Status::OK();
      }));
  return batches;
}

// Column-level realign of every batch into `to`'s attribute order.
StatusOr<BatchVec> RealignBatches(const VEngine& eng, BatchVec batches,
                                  const Schema& from, const Schema& to) {
  if (from == to) return batches;
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                          ColumnMapping(from, to));
  return RunMap(eng, std::move(batches),
                [&](RecordBatch b) -> StatusOr<RecordBatch> {
                  return std::move(b).SelectColumns(mapping, to);
                });
}

// Function: bound once, then one column-building task per batch. As on
// the row engines, an unregistered function fails only once a row flows.
StatusOr<BatchVec> RunFunction(const VEngine& eng, const Activity& activity,
                               const Schema& in_schema,
                               const Schema& out_schema, BatchVec batches) {
  if (TotalRows(batches) == 0) return BatchVec{};
  ETLOPT_ASSIGN_OR_RETURN(
      BoundFunction f,
      BindFunction(activity.params_as<FunctionParams>(), in_schema,
                   out_schema));
  return RunMap(eng, std::move(batches), [&](RecordBatch b) {
    return kernels::FunctionBatch(std::move(b), f, out_schema);
  });
}

// SurrogateKey: bound once (an unbound table fails even with no rows),
// then one lookup task per batch.
StatusOr<BatchVec> RunSurrogateKey(const VEngine& eng,
                                   const Activity& activity,
                                   const Schema& in_schema,
                                   const Schema& out_schema,
                                   BatchVec batches) {
  ETLOPT_ASSIGN_OR_RETURN(
      BoundSurrogateKey sk,
      BindSurrogateKey(activity, in_schema, out_schema, *eng.ctx));
  if (TotalRows(batches) == 0) return BatchVec{};
  return RunMap(eng, std::move(batches), [&](RecordBatch b) {
    return kernels::SurrogateKeyBatch(std::move(b), sk, out_schema,
                                      activity.label());
  });
}

// Precomputes each batch's cached key hashes (one task per batch) so the
// blocking kernels can read the caches concurrently afterwards — the
// cache itself is not thread-safe.
Status PrecomputeKeyHashes(const VEngine& eng, BatchVec& batches,
                           const std::vector<size_t>& key_cols) {
  eng.stats->batches += batches.size();
  return eng.pool->ParallelFor(
      batches.size(), [&](size_t b, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        batches[b].KeyHashes(key_cols);
        return Status::OK();
      });
}

// A filter kind: one selection-vector task per batch, then compaction.
template <typename SelFn>
StatusOr<BatchVec> RunFilter(const VEngine& eng, BatchVec batches,
                             const SelFn& sel_of_batch) {
  eng.stats->batches += batches.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      batches.size(), [&](size_t b, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        ETLOPT_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                                sel_of_batch(batches[b]));
        if (sel.size() != batches[b].num_rows()) {
          batches[b] = batches[b].Gather(sel);
        }
        return Status::OK();
      }));
  DropEmptyBatches(&batches);
  return batches;
}

StatusOr<BatchVec> RunSelection(const VEngine& eng, const Activity& activity,
                                BatchVec batches) {
  const auto& p = activity.params_as<SelectionParams>();
  return RunFilter(eng, std::move(batches),
                   [&p](const RecordBatch& b) {
                     return kernels::SelectionFilter(*p.predicate, b);
                   });
}

StatusOr<BatchVec> RunNotNull(const VEngine& eng, size_t col,
                              BatchVec batches) {
  return RunFilter(eng, std::move(batches),
                   [col](const RecordBatch& b)
                       -> StatusOr<std::vector<uint32_t>> {
                     return kernels::NotNullFilter(b, col);
                   });
}

StatusOr<BatchVec> RunDomainCheck(const VEngine& eng, const Activity& activity,
                                  size_t col, BatchVec batches) {
  const auto& p = activity.params_as<DomainCheckParams>();
  return RunFilter(eng, std::move(batches),
                   [&](const RecordBatch& b) {
                     return kernels::DomainCheckFilter(
                         b, col, p.lo, p.hi, activity.label(), p.attr);
                   });
}

// Duplicate elimination: hash-partitioned keep-first over the batches'
// cached key hashes, then per-batch compaction of the keep bitmaps.
StatusOr<BatchVec> RunPkCheck(const VEngine& eng,
                              const std::vector<size_t>& key_cols,
                              BatchVec batches) {
  ETLOPT_RETURN_NOT_OK(PrecomputeKeyHashes(eng, batches, key_cols));
  std::vector<std::vector<uint8_t>> keep(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    keep[b].assign(batches[b].num_rows(), 0);
  }
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      eng.num_partitions, [&](size_t part, size_t) -> Status {
        kernels::PkKeepPartition(batches, key_cols, part, eng.num_partitions,
                                 &keep);
        return Status::OK();
      }));
  eng.stats->batches += batches.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      batches.size(), [&](size_t b, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        std::vector<uint32_t> sel;
        for (size_t i = 0; i < batches[b].num_rows(); ++i) {
          if (keep[b][i]) sel.push_back(static_cast<uint32_t>(i));
        }
        if (sel.size() != batches[b].num_rows()) {
          batches[b] = batches[b].Gather(sel);
        }
        return Status::OK();
      }));
  DropEmptyBatches(&batches);
  return batches;
}

// Aggregation: partitions own disjoint group keys and scan batches in
// flow order, so each AggAcc sees its rows exactly as the serial scan
// does; partition maps are key-sorted and disjoint, so a merge-sort of
// their entries reproduces the serial engines' global key order.
StatusOr<BatchVec> RunAggregation(const VEngine& eng, const Activity& activity,
                                  const Schema& in_schema,
                                  const Schema& out_schema, BatchVec batches) {
  const auto& p = activity.params_as<AggregationParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> group_cols,
                          AttrIndices(in_schema, p.group_by));
  std::vector<std::string> args;
  for (const auto& a : p.aggregates) args.push_back(a.arg);
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> arg_cols,
                          AttrIndices(in_schema, args));

  const size_t parts = p.group_by.empty() ? 1 : eng.num_partitions;
  if (!p.group_by.empty()) {
    ETLOPT_RETURN_NOT_OK(PrecomputeKeyHashes(eng, batches, group_cols));
  }
  std::vector<kernels::GroupMap> part_groups(parts);
  ETLOPT_RETURN_NOT_OK(
      eng.pool->ParallelFor(parts, [&](size_t part, size_t) -> Status {
        part_groups[part] = kernels::AggregatePartition(
            batches, group_cols, arg_cols, part, parts);
        return Status::OK();
      }));

  // Merge: partition keys are disjoint, each map is key-sorted; collect
  // and sort to restore the serial std::map emission order.
  std::vector<std::pair<std::vector<Value>, std::vector<AggAcc>>> groups;
  for (auto& pg : part_groups) {
    for (auto& [key, accs] : pg) groups.emplace_back(key, std::move(accs));
  }
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return KeyOrder()(a.first, b.first);
  });

  BatchVec out;
  RecordBatch cur(out_schema);
  for (const auto& [key, accs] : groups) {
    Record r;
    for (const auto& k : key) r.Append(k);
    for (size_t i = 0; i < p.aggregates.size(); ++i) {
      r.Append(accs[i].Result(p.aggregates[i].fn));
    }
    cur.AppendRow(r);
    if (cur.num_rows() >= eng.batch_size) {
      out.push_back(std::move(cur));
      cur = RecordBatch(out_schema);
    }
  }
  if (cur.num_rows() > 0) out.push_back(std::move(cur));
  return out;
}

// Union: left batches pass through (the output schema is the left
// schema), right batches realign column-wise and append in order.
StatusOr<BatchVec> RunUnion(const VEngine& eng,
                            const std::vector<Schema>& in_schemas,
                            const Schema& out_schema, BatchVec left,
                            BatchVec right) {
  ETLOPT_ASSIGN_OR_RETURN(
      BatchVec right_aligned,
      RealignBatches(eng, std::move(right), in_schemas[1], out_schema));
  for (auto& b : right_aligned) left.push_back(std::move(b));
  return left;
}

// Join: hash-partitioned build index over the right batches, then one
// probe task per left batch emitting in left order (build order per key).
StatusOr<BatchVec> RunJoin(const VEngine& eng, const Activity& activity,
                           const std::vector<Schema>& in_schemas,
                           const Schema& out_schema, BatchVec left,
                           BatchVec right) {
  const auto& p = activity.params_as<JoinParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_key,
                          AttrIndices(in_schemas[0], p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_key,
                          AttrIndices(in_schemas[1], p.key_attrs));
  const std::vector<size_t> right_pass =
      JoinPassthrough(in_schemas[1], p.key_attrs);

  ETLOPT_RETURN_NOT_OK(PrecomputeKeyHashes(eng, right, right_key));
  ETLOPT_RETURN_NOT_OK(PrecomputeKeyHashes(eng, left, left_key));

  std::vector<kernels::JoinShard> shards(eng.num_partitions);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      shards.size(), [&](size_t part, size_t) -> Status {
        shards[part] = kernels::JoinBuildPartition(right, right_key, part,
                                                   shards.size());
        return Status::OK();
      }));

  eng.stats->batches += left.size();
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      left.size(), [&](size_t b, size_t) -> Status {
        ETLOPT_FAULT_HIT(FaultSite::kVectorizedBatch);
        left[b] = kernels::JoinProbeBatch(left[b], left_key, shards, right,
                                          right_pass, out_schema);
        return Status::OK();
      }));
  DropEmptyBatches(&left);
  return left;
}

// Row-path fallback for the kinds without a vectorized kernel (bag
// difference / intersection, predicates CanVectorizePredicate rejects):
// flatten, Activity::Execute (the oracle itself), re-batch. Keeps the
// engine total over every workflow with identical results and errors.
StatusOr<BatchVec> RunFallback(const VEngine& eng, const Activity& activity,
                               const std::vector<Schema>& in_schemas,
                               const Schema& out_schema, const BatchVec& left,
                               const BatchVec* right) {
  std::vector<std::vector<Record>> inputs;
  inputs.push_back(FlattenBatches(left));
  if (right != nullptr) inputs.push_back(FlattenBatches(*right));
  eng.stats->fallback_members += 1;
  eng.stats->fallback_rows += inputs[0].size();
  ETLOPT_ASSIGN_OR_RETURN(
      std::vector<Record> rows,
      activity.Execute(in_schemas, std::move(inputs), *eng.ctx));
  return MakeBatches(eng, out_schema, rows);
}

StatusOr<BatchVec> RunMemberVec(const VEngine& eng, const Activity& activity,
                                const std::vector<Schema>& in_schemas,
                                BatchVec left, const BatchVec* right) {
  ETLOPT_ASSIGN_OR_RETURN(Schema out_schema,
                          activity.ComputeOutputSchema(in_schemas));
  const Schema& in = in_schemas[0];
  const size_t in_rows =
      TotalRows(left) + (right != nullptr ? TotalRows(*right) : 0);

  auto vectorized = [&](StatusOr<BatchVec> out) {
    if (out.ok()) {
      eng.stats->vectorized_members += 1;
      eng.stats->vectorized_rows += in_rows;
    }
    return out;
  };

  switch (activity.kind()) {
    case ActivityKind::kSelection: {
      const auto& p = activity.params_as<SelectionParams>();
      if (!CanVectorizePredicate(*p.predicate, in)) break;
      return vectorized(RunSelection(eng, activity, std::move(left)));
    }
    case ActivityKind::kNotNull: {
      auto idx = in.IndexOf(activity.params_as<NotNullParams>().attr);
      if (!idx.has_value()) break;
      return vectorized(RunNotNull(eng, *idx, std::move(left)));
    }
    case ActivityKind::kDomainCheck: {
      auto idx = in.IndexOf(activity.params_as<DomainCheckParams>().attr);
      if (!idx.has_value()) break;
      return vectorized(RunDomainCheck(eng, activity, *idx, std::move(left)));
    }
    case ActivityKind::kProjection:
      return vectorized(RealignBatches(eng, std::move(left), in, out_schema));
    case ActivityKind::kFunction:
      return vectorized(
          RunFunction(eng, activity, in, out_schema, std::move(left)));
    case ActivityKind::kSurrogateKey:
      return vectorized(
          RunSurrogateKey(eng, activity, in, out_schema, std::move(left)));
    case ActivityKind::kPrimaryKeyCheck: {
      ETLOPT_ASSIGN_OR_RETURN(
          std::vector<size_t> key_cols,
          AttrIndices(in, activity.params_as<PrimaryKeyParams>().key_attrs));
      return vectorized(RunPkCheck(eng, key_cols, std::move(left)));
    }
    case ActivityKind::kAggregation:
      return vectorized(
          RunAggregation(eng, activity, in, out_schema, std::move(left)));
    case ActivityKind::kUnion:
      return vectorized(RunUnion(eng, in_schemas, out_schema, std::move(left),
                                 *right));
    case ActivityKind::kJoin:
      return vectorized(RunJoin(eng, activity, in_schemas, out_schema,
                                std::move(left), *right));
    default:
      break;
  }
  return RunFallback(eng, activity, in_schemas, out_schema, left, right);
}

// The vectorized engine's per-node strategy for the node driver: flows
// are batch lists, batched once at every source and flattened back to
// rows only at targets (and where the node policy asks for rows).
class VectorizedStrategy {
 public:
  using Flow = BatchVec;

  explicit VectorizedStrategy(const VEngine& eng) : eng_(eng) {}

  StatusOr<Flow> Source(const Schema& schema,
                        const std::vector<Record>& rows) {
    return MakeBatches(eng_, schema, rows);
  }
  StatusOr<Flow> FromRows(const Schema& schema, std::vector<Record> rows) {
    return MakeBatches(eng_, schema, rows);
  }
  StatusOr<Flow> Realign(Flow batches, const Schema& from, const Schema& to) {
    return RealignBatches(eng_, std::move(batches), from, to);
  }
  // Runs the chain member by member; the first member may be binary,
  // later members are unary by the chain invariant. Consumes `inputs`.
  StatusOr<Flow> RunChain(NodeId, const ActivityChain& chain,
                          const std::vector<Schema>& in_schemas,
                          std::vector<Flow>& inputs) {
    Flow cur;
    Schema cur_schema;
    for (size_t m = 0; m < chain.size(); ++m) {
      const Activity& member = chain.members()[m].activity;
      std::vector<Schema> member_schemas =
          m == 0 ? in_schemas : std::vector<Schema>{cur_schema};
      Flow left = m == 0 ? std::move(inputs[0]) : std::move(cur);
      const Flow* right =
          (m == 0 && member.is_binary()) ? &inputs[1] : nullptr;
      ETLOPT_ASSIGN_OR_RETURN(
          cur, RunMemberVec(eng_, member, member_schemas, std::move(left),
                            right));
      ETLOPT_ASSIGN_OR_RETURN(cur_schema,
                              member.ComputeOutputSchema(member_schemas));
    }
    return cur;
  }
  static size_t Rows(const Flow& batches) { return TotalRows(batches); }
  static std::vector<Record> ToRows(const Flow& batches) {
    return FlattenBatches(batches);
  }

 private:
  const VEngine& eng_;
};

}  // namespace

StatusOr<ExecutionResult> ExecuteVectorized(const Workflow& workflow,
                                            const ExecutionInput& input,
                                            const VectorizedOptions& options,
                                            VectorizedStats* stats) {
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  const size_t threads = options.num_threads != 0
                             ? options.num_threads
                             : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  VectorizedStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = VectorizedStats{};
  stats->num_threads = pool.num_threads();

  VEngine eng;
  eng.pool = &pool;
  eng.batch_size =
      options.batch_size != 0 ? options.batch_size : kDefaultBatchSize;
  eng.num_partitions =
      options.num_partitions != 0
          ? options.num_partitions
          : std::min<size_t>(64, pool.num_threads() * 4);
  eng.ctx = &input.context;
  eng.stats = stats;

  CachePlan plan(workflow, input, options.cache);
  VectorizedStrategy strategy(eng);
  return DriveNodes(workflow, input, strategy, plan);
}

}  // namespace etlopt
