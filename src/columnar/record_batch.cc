#include "columnar/record_batch.h"

#include <algorithm>

#include "common/macros.h"

namespace etlopt {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace

RecordBatch::RecordBatch(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const auto& a : schema_.attributes()) columns_.emplace_back(a.type);
}

RecordBatch RecordBatch::FromRows(const Schema& schema,
                                  const std::vector<Record>& rows,
                                  size_t begin, size_t end) {
  RecordBatch b(schema);
  b.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) b.AppendRow(rows[i]);
  return b;
}

void RecordBatch::Reserve(size_t n) {
  for (auto& c : columns_) c.Reserve(n);
}

void RecordBatch::AppendRow(const Record& r) {
  ETLOPT_CHECK(r.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(r.value(c));
  ++rows_;
  hashes_cached_ = false;
}

void RecordBatch::SetRowCount(size_t n) {
  for (const auto& c : columns_) ETLOPT_CHECK(c.size() == n);
  rows_ = n;
  hashes_cached_ = false;
}

Record RecordBatch::RowAt(size_t i) const {
  Record r;
  for (const auto& c : columns_) r.Append(c.ValueAt(i));
  return r;
}

void RecordBatch::AppendRowsTo(std::vector<Record>* out) const {
  out->reserve(out->size() + rows_);
  for (size_t i = 0; i < rows_; ++i) out->push_back(RowAt(i));
}

std::vector<Record> RecordBatch::ToRows() const {
  std::vector<Record> out;
  AppendRowsTo(&out);
  return out;
}

RecordBatch RecordBatch::Gather(const std::vector<uint32_t>& sel) const {
  RecordBatch out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Gather(sel));
  out.rows_ = sel.size();
  return out;
}

RecordBatch RecordBatch::SelectColumns(const std::vector<size_t>& mapping,
                                       const Schema& to) && {
  RecordBatch out;
  out.schema_ = to;
  out.columns_.reserve(mapping.size());
  for (size_t src : mapping) out.columns_.push_back(std::move(columns_[src]));
  out.rows_ = rows_;
  return out;
}

RecordBatch RecordBatch::SelectColumns(const std::vector<size_t>& mapping,
                                       const Schema& to, size_t at,
                                       ColumnVector computed) && {
  ETLOPT_CHECK(computed.size() == rows_);
  RecordBatch out;
  out.schema_ = to;
  out.columns_.reserve(mapping.size());
  for (size_t j = 0; j < mapping.size(); ++j) {
    if (j == at) {
      out.columns_.push_back(std::move(computed));
    } else {
      out.columns_.push_back(std::move(columns_[mapping[j]]));
    }
  }
  out.rows_ = rows_;
  return out;
}

const std::vector<uint64_t>& RecordBatch::KeyHashes(
    const std::vector<size_t>& key_cols) const {
  if (hashes_cached_ && cached_key_cols_ == key_cols) return cached_hashes_;
  cached_key_cols_ = key_cols;
  cached_hashes_.assign(rows_, kFnvBasis);
  for (size_t c : key_cols) {
    const ColumnVector& col = columns_[c];
    for (size_t i = 0; i < rows_; ++i) {
      cached_hashes_[i] = (cached_hashes_[i] ^ col.CellHash(i)) * kFnvPrime;
    }
  }
  hashes_cached_ = true;
  return cached_hashes_;
}

std::vector<RecordBatch> BatchRows(const Schema& schema,
                                   const std::vector<Record>& rows,
                                   size_t batch_size) {
  if (batch_size == 0) batch_size = kDefaultBatchSize;
  std::vector<RecordBatch> out;
  out.reserve((rows.size() + batch_size - 1) / batch_size);
  for (size_t begin = 0; begin < rows.size(); begin += batch_size) {
    size_t end = std::min(rows.size(), begin + batch_size);
    out.push_back(RecordBatch::FromRows(schema, rows, begin, end));
  }
  return out;
}

std::vector<Record> FlattenBatches(const std::vector<RecordBatch>& batches) {
  size_t total = 0;
  for (const auto& b : batches) total += b.num_rows();
  std::vector<Record> out;
  out.reserve(total);
  for (const auto& b : batches) b.AppendRowsTo(&out);
  return out;
}

}  // namespace etlopt
