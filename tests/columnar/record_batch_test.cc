#include "columnar/record_batch.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "columnar/column_vector.h"

namespace etlopt {
namespace {

Schema TestSchema() {
  return Schema::MakeOrDie({{"I", DataType::kInt64},
                            {"D", DataType::kDouble},
                            {"S", DataType::kString},
                            {"B", DataType::kBool}});
}

std::vector<Record> TestRows(int n) {
  std::vector<Record> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Record({
        i % 5 == 0 ? Value::Null() : Value::Int(i),
        i % 7 == 0 ? Value::Null() : Value::Double(i * 0.5),
        i % 3 == 0 ? Value::Null() : Value::String("s" + std::to_string(i)),
        i % 2 == 0 ? Value::Null() : Value::Bool(i % 4 == 1),
    }));
  }
  return rows;
}

TEST(ColumnVectorTest, TypedAppendRoundTrips) {
  ColumnVector col(DataType::kInt64);
  col.Append(Value::Int(42));
  col.Append(Value::Null());
  col.Append(Value::Int(-7));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.boxed());
  EXPECT_EQ(col.ValueAt(0), Value::Int(42));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.ValueAt(1), Value::Null());
  EXPECT_EQ(col.ValueAt(2), Value::Int(-7));
  EXPECT_EQ(col.TypeAt(0), DataType::kInt64);
  EXPECT_EQ(col.TypeAt(1), DataType::kNull);
}

// A runtime type that disagrees with the declared type demotes the
// column to boxed storage — and the round-trip stays exact, including
// the runtime types of the cells appended before the demotion.
TEST(ColumnVectorTest, TypeMismatchDemotesAndKeepsExactValues) {
  ColumnVector col(DataType::kInt64);
  col.Append(Value::Int(1));
  col.Append(Value::Double(2.5));  // mismatch: demote
  col.Append(Value::String("x"));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_TRUE(col.boxed());
  EXPECT_EQ(col.ValueAt(0), Value::Int(1));
  EXPECT_EQ(col.TypeAt(0), DataType::kInt64);
  EXPECT_EQ(col.ValueAt(1), Value::Double(2.5));
  EXPECT_EQ(col.TypeAt(1), DataType::kDouble);
  EXPECT_EQ(col.ValueAt(2), Value::String("x"));
}

TEST(ColumnVectorTest, CellHashMatchesValueHash) {
  ColumnVector col(DataType::kDouble);
  col.Append(Value::Double(3.25));
  col.Append(Value::Null());
  col.Append(Value::Double(-0.0));  // normalizes like Value::Hash
  col.Append(Value::Int(9));        // demotes
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.CellHash(i), col.ValueAt(i).Hash()) << "cell " << i;
  }
}

// The surrogate-key index is probed with CellHash and matched with
// CellEquals, so both must agree with Value's own hash and equality on
// every typed and demoted column, for every cell and probe value.
TEST(ColumnVectorTest, CellHashAndCellEqualsAgreeWithValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> probes = {
      Value::Null(),        Value::Int(2),         Value::Int(0),
      Value::Double(2.0),   Value::Double(-0.0),   Value::Double(2.5),
      Value::Double(nan),   Value::String("2"),    Value::String(""),
      Value::Bool(true),    Value::Bool(false)};
  std::vector<ColumnVector> columns;
  for (DataType t : {DataType::kInt64, DataType::kDouble, DataType::kString,
                     DataType::kBool}) {
    ColumnVector typed(t);
    for (const Value& v : probes) {
      if (v.is_null() || v.type() == t) typed.Append(v);
    }
    ASSERT_FALSE(typed.boxed());
    columns.push_back(std::move(typed));
  }
  ColumnVector demoted(DataType::kInt64);
  for (const Value& v : probes) demoted.Append(v);
  ASSERT_TRUE(demoted.boxed());
  columns.push_back(std::move(demoted));
  for (const ColumnVector& col : columns) {
    for (size_t i = 0; i < col.size(); ++i) {
      const Value cell = col.ValueAt(i);
      SCOPED_TRACE(std::string(DataTypeToString(col.declared_type())) +
                   " cell " + cell.ToString());
      EXPECT_EQ(col.CellHash(i), cell.Hash());
      for (const Value& v : probes) {
        EXPECT_EQ(col.CellEquals(i, v), cell == v) << "probe " << v.ToString();
      }
    }
  }
  // Equal numbers hash alike across int and double storage.
  ColumnVector ints(DataType::kInt64);
  ints.Append(Value::Int(2));
  ColumnVector doubles(DataType::kDouble);
  doubles.Append(Value::Double(2.0));
  EXPECT_EQ(ints.CellHash(0), doubles.CellHash(0));
}

TEST(ColumnVectorTest, GatherPreservesOrderAndNulls) {
  ColumnVector col(DataType::kString);
  col.Append(Value::String("a"));
  col.Append(Value::Null());
  col.Append(Value::String("c"));
  col.Append(Value::String("d"));
  ColumnVector out = col.Gather({3, 1, 0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.ValueAt(0), Value::String("d"));
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_EQ(out.ValueAt(2), Value::String("a"));
}

TEST(RecordBatchTest, FromRowsToRowsIsIdentity) {
  Schema schema = TestSchema();
  std::vector<Record> rows = TestRows(50);
  RecordBatch batch = RecordBatch::FromRows(schema, rows, 0, rows.size());
  ASSERT_EQ(batch.num_rows(), rows.size());
  ASSERT_EQ(batch.num_columns(), schema.size());
  EXPECT_EQ(batch.ToRows(), rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.RowAt(i), rows[i]) << "row " << i;
  }
}

TEST(RecordBatchTest, EmptyBatchBehaves) {
  Schema schema = TestSchema();
  std::vector<Record> none;
  RecordBatch batch = RecordBatch::FromRows(schema, none, 0, 0);
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_TRUE(batch.ToRows().empty());
  RecordBatch gathered = batch.Gather({});
  EXPECT_EQ(gathered.num_rows(), 0u);
  EXPECT_TRUE(BatchRows(schema, none, 16).empty());
}

// The batch-size edge cases the engine hits: a single row, rows that
// exactly fill batches, and one row of spill-over.
TEST(RecordBatchTest, BatchRowsSplitsAtEveryBoundary) {
  Schema schema = TestSchema();
  const size_t cap = 16;
  for (size_t n : {size_t{1}, cap, cap + 1, 3 * cap}) {
    std::vector<Record> rows = TestRows(static_cast<int>(n));
    std::vector<RecordBatch> batches = BatchRows(schema, rows, cap);
    ASSERT_EQ(batches.size(), (n + cap - 1) / cap) << "n=" << n;
    size_t total = 0;
    for (const auto& b : batches) {
      EXPECT_LE(b.num_rows(), cap);
      total += b.num_rows();
    }
    EXPECT_EQ(total, n);
    EXPECT_EQ(FlattenBatches(batches), rows) << "n=" << n;
  }
}

TEST(RecordBatchTest, GatherCompactsInOrder) {
  Schema schema = TestSchema();
  std::vector<Record> rows = TestRows(20);
  RecordBatch batch = RecordBatch::FromRows(schema, rows, 0, rows.size());
  RecordBatch out = batch.Gather({2, 5, 19});
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.RowAt(0), rows[2]);
  EXPECT_EQ(out.RowAt(1), rows[5]);
  EXPECT_EQ(out.RowAt(2), rows[19]);
}

TEST(RecordBatchTest, SelectColumnsRealigns) {
  Schema schema = TestSchema();
  Schema swapped = Schema::MakeOrDie({{"S", DataType::kString},
                                      {"I", DataType::kInt64}});
  std::vector<Record> rows = TestRows(10);
  RecordBatch batch = RecordBatch::FromRows(schema, rows, 0, rows.size());
  RecordBatch out = std::move(batch).SelectColumns({2, 0}, swapped);
  ASSERT_EQ(out.num_rows(), rows.size());
  ASSERT_EQ(out.num_columns(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.RowAt(i), Record({rows[i].value(2), rows[i].value(0)}));
  }
}

TEST(RecordBatchTest, KeyHashesMatchRecordHash) {
  Schema schema = TestSchema();
  std::vector<Record> rows = TestRows(30);
  RecordBatch batch = RecordBatch::FromRows(schema, rows, 0, rows.size());
  std::vector<size_t> key_cols = {0, 2};
  const std::vector<uint64_t>& hashes = batch.KeyHashes(key_cols);
  ASSERT_EQ(hashes.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Record key({rows[i].value(0), rows[i].value(2)});
    EXPECT_EQ(hashes[i], key.Hash()) << "row " << i;
  }
  // Cached: same pointer on re-request with the same columns.
  EXPECT_EQ(&batch.KeyHashes(key_cols), &hashes);
  // A different column set recomputes.
  const std::vector<uint64_t>& other = batch.KeyHashes({1});
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(other[i], Record({rows[i].value(1)}).Hash());
  }
}

TEST(RecordBatchTest, SetRowCountAfterColumnWiseAppend) {
  Schema schema = Schema::MakeOrDie({{"I", DataType::kInt64},
                                     {"S", DataType::kString}});
  RecordBatch batch(schema);
  batch.column(0).Append(Value::Int(1));
  batch.column(1).Append(Value::String("a"));
  batch.column(0).Append(Value::Null());
  batch.column(1).Append(Value::String("b"));
  batch.SetRowCount(2);
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.RowAt(1), Record({Value::Null(), Value::String("b")}));
}

}  // namespace
}  // namespace etlopt
