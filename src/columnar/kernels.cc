#include "columnar/kernels.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {
namespace kernels {

StatusOr<std::vector<uint32_t>> SelectionFilter(const Expr& predicate,
                                                const RecordBatch& batch) {
  std::vector<uint32_t> sel;
  ETLOPT_RETURN_NOT_OK(SelectTrueRows(predicate, batch, &sel));
  return sel;
}

std::vector<uint32_t> NotNullFilter(const RecordBatch& batch, size_t col) {
  const uint8_t* nulls = batch.column(col).null_bytes();
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    if (!nulls[i]) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

StatusOr<std::vector<uint32_t>> DomainCheckFilter(const RecordBatch& batch,
                                                  size_t col, double lo,
                                                  double hi,
                                                  const std::string& label,
                                                  const std::string& attr) {
  const ColumnVector& c = batch.column(col);
  const uint8_t* nulls = c.null_bytes();
  std::vector<uint32_t> sel;
  const bool typed_numeric =
      !c.boxed() && (c.declared_type() == DataType::kInt64 ||
                     c.declared_type() == DataType::kDouble);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    if (nulls[i]) continue;
    double d;
    if (typed_numeric) {
      d = c.declared_type() == DataType::kInt64
              ? static_cast<double>(c.ints()[i])
              : c.doubles()[i];
    } else {
      DataType t = c.TypeAt(i);
      if (t != DataType::kInt64 && t != DataType::kDouble) {
        return Status::InvalidArgument(
            StrFormat("activity '%s': domain check over non-numeric '%s'",
                      label.c_str(), attr.c_str()));
      }
      d = c.ValueAt(i).AsDouble();
    }
    if (d >= lo && d <= hi) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

StatusOr<RecordBatch> FunctionBatch(RecordBatch batch,
                                    const BoundFunction& f,
                                    const Schema& out_schema) {
  const size_t n = batch.num_rows();
  ColumnVector computed(out_schema.attribute(f.layout.computed).type);
  computed.Reserve(n);
  std::vector<Value> args(f.args.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < f.args.size(); ++a) {
      args[a] = batch.column(f.args[a]).ValueAt(i);
    }
    ETLOPT_ASSIGN_OR_RETURN(Value v, f.fn(args));
    computed.Append(v);
  }
  return std::move(batch).SelectColumns(f.layout.source, out_schema,
                                       f.layout.computed, std::move(computed));
}

StatusOr<RecordBatch> SurrogateKeyBatch(RecordBatch batch,
                                        const BoundSurrogateKey& sk,
                                        const Schema& out_schema,
                                        const std::string& label) {
  const size_t n = batch.num_rows();
  ColumnVector computed(out_schema.attribute(sk.layout.computed).type);
  computed.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* hit = sk.index->Find(
        sk.keys.size(),
        [&](size_t k) { return batch.column(sk.keys[k]).CellHash(i); },
        [&](size_t k, const Value& v) {
          return batch.column(sk.keys[k]).CellEquals(i, v);
        });
    if (hit == nullptr) {
      return SurrogateKeyMiss(label, KeyAt(batch, sk.keys, i));
    }
    computed.Append(*hit);
  }
  return std::move(batch).SelectColumns(sk.layout.source, out_schema,
                                       sk.layout.computed, std::move(computed));
}

std::vector<Value> KeyAt(const RecordBatch& batch,
                         const std::vector<size_t>& key_cols, size_t row) {
  std::vector<Value> key;
  key.reserve(key_cols.size());
  for (size_t c : key_cols) key.push_back(batch.column(c).ValueAt(row));
  return key;
}

void PkKeepPartition(const std::vector<RecordBatch>& batches,
                     const std::vector<size_t>& key_cols, size_t part,
                     size_t num_partitions,
                     std::vector<std::vector<uint8_t>>* keep) {
  KeyMap<bool> seen;
  for (size_t b = 0; b < batches.size(); ++b) {
    const RecordBatch& batch = batches[b];
    const std::vector<uint64_t>& hashes = batch.KeyHashes(key_cols);
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      if (hashes[i] % num_partitions != part) continue;
      if (seen.emplace(KeyAt(batch, key_cols, i), true).second) {
        (*keep)[b][i] = 1;
      }
    }
  }
}

GroupMap AggregatePartition(const std::vector<RecordBatch>& batches,
                            const std::vector<size_t>& group_cols,
                            const std::vector<size_t>& arg_cols, size_t part,
                            size_t num_partitions) {
  GroupMap groups;
  for (const RecordBatch& batch : batches) {
    const std::vector<uint64_t>& hashes = batch.KeyHashes(group_cols);
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      if (hashes[i] % num_partitions != part) continue;
      auto [it, inserted] = groups.try_emplace(
          KeyAt(batch, group_cols, i), std::vector<AggAcc>(arg_cols.size()));
      (void)inserted;
      for (size_t a = 0; a < arg_cols.size(); ++a) {
        it->second[a].Add(batch.column(arg_cols[a]).ValueAt(i));
      }
    }
  }
  return groups;
}

namespace {

bool KeyHasNull(const RecordBatch& batch, const std::vector<size_t>& key_cols,
                size_t row) {
  for (size_t c : key_cols) {
    if (batch.column(c).IsNull(row)) return true;
  }
  return false;
}

}  // namespace

JoinShard JoinBuildPartition(const std::vector<RecordBatch>& build,
                             const std::vector<size_t>& key_cols, size_t part,
                             size_t num_partitions) {
  JoinShard shard;
  for (size_t b = 0; b < build.size(); ++b) {
    const RecordBatch& batch = build[b];
    const std::vector<uint64_t>& hashes = batch.KeyHashes(key_cols);
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      if (hashes[i] % num_partitions != part) continue;
      if (KeyHasNull(batch, key_cols, i)) continue;
      shard[KeyAt(batch, key_cols, i)].push_back(
          BatchRef{static_cast<uint32_t>(b), static_cast<uint32_t>(i)});
    }
  }
  return shard;
}

RecordBatch JoinProbeBatch(const RecordBatch& left,
                           const std::vector<size_t>& left_key_cols,
                           const std::vector<JoinShard>& shards,
                           const std::vector<RecordBatch>& build,
                           const std::vector<size_t>& build_pass_cols,
                           const Schema& out_schema) {
  RecordBatch out(out_schema);
  const std::vector<uint64_t>& hashes = left.KeyHashes(left_key_cols);
  const size_t left_cols = left.num_columns();
  size_t emitted = 0;
  for (size_t i = 0; i < left.num_rows(); ++i) {
    if (KeyHasNull(left, left_key_cols, i)) continue;
    const JoinShard& shard = shards[hashes[i] % shards.size()];
    auto hit = shard.find(KeyAt(left, left_key_cols, i));
    if (hit == shard.end()) continue;
    for (const BatchRef& ref : hit->second) {
      const RecordBatch& rb = build[ref.batch];
      for (size_t c = 0; c < left_cols; ++c) {
        out.column(c).AppendFrom(left.column(c), i);
      }
      for (size_t p = 0; p < build_pass_cols.size(); ++p) {
        out.column(left_cols + p).AppendFrom(rb.column(build_pass_cols[p]),
                                             ref.row);
      }
      ++emitted;
    }
  }
  out.SetRowCount(emitted);
  return out;
}

}  // namespace kernels
}  // namespace etlopt
