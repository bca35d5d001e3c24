#include "columnar/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "activity/templates.h"
#include "columnar/vector_eval.h"
#include "common/macros.h"
#include "expr/expr.h"

namespace etlopt {
namespace {

RecordBatch MakeBatch(const Schema& schema, std::vector<Record> rows) {
  return RecordBatch::FromRows(schema, rows, 0, rows.size());
}

TEST(VectorEvalTest, SupportedPredicateClass) {
  Schema schema = Schema::MakeOrDie({{"A", DataType::kInt64},
                                     {"B", DataType::kDouble}});
  EXPECT_TRUE(CanVectorizePredicate(
      *Compare(CompareOp::kGe, Column("A"), Literal(Value::Int(3))), schema));
  EXPECT_TRUE(CanVectorizePredicate(
      *And(Compare(CompareOp::kLt, Column("A"), Column("B")),
           Not(IsNull(Column("B")))),
      schema));
  EXPECT_TRUE(CanVectorizePredicate(*IsNotNull(Column("A")), schema));
  // Function calls are opaque (no parts()): row fallback.
  EXPECT_FALSE(CanVectorizePredicate(*Function("f", {}), schema));
  // Arithmetic inside a comparison is outside the supported class.
  EXPECT_FALSE(CanVectorizePredicate(
      *Compare(CompareOp::kEq,
               Arith(ArithOp::kAdd, Column("A"), Literal(Value::Int(1))),
               Literal(Value::Int(2))),
      schema));
  // Unknown column: fallback, so the row engine raises its NotFound.
  EXPECT_FALSE(CanVectorizePredicate(
      *Compare(CompareOp::kEq, Column("Z"), Literal(Value::Int(1))), schema));
}

// Tri-state semantics against the row evaluator on a null-heavy batch:
// the kernel keeps exactly EvaluatePredicate's rows.
TEST(VectorEvalTest, SelectTrueRowsMatchesRowEvaluator) {
  Schema schema = Schema::MakeOrDie({{"A", DataType::kInt64},
                                     {"B", DataType::kDouble}});
  std::vector<Record> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(Record({
        i % 4 == 0 ? Value::Null() : Value::Int(i % 10),
        i % 5 == 0 ? Value::Null() : Value::Double(i % 7),
    }));
  }
  RecordBatch batch = MakeBatch(schema, rows);
  std::vector<ExprPtr> predicates;
  predicates.push_back(
      Compare(CompareOp::kGe, Column("A"), Literal(Value::Int(4))));
  predicates.push_back(
      Compare(CompareOp::kLt, Column("A"), Column("B")));
  predicates.push_back(
      Or(Compare(CompareOp::kEq, Column("A"), Literal(Value::Int(2))),
         IsNull(Column("B"))));
  predicates.push_back(
      And(Not(Compare(CompareOp::kNe, Column("A"), Literal(Value::Int(3)))),
          IsNotNull(Column("B"))));
  for (const auto& pred : predicates) {
    ASSERT_TRUE(CanVectorizePredicate(*pred, schema));
    std::vector<uint32_t> sel;
    ASSERT_TRUE(SelectTrueRows(*pred, batch, &sel).ok());
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      auto keep = EvaluatePredicate(*pred, rows[i], schema);
      ASSERT_TRUE(keep.ok()) << keep.status().ToString();
      if (*keep) expected.push_back(i);
    }
    EXPECT_EQ(sel, expected);
  }
}

// Every CompareOp over NaN, NULL, int against double and string against
// number, in every operand form, on typed and on demoted columns: the
// kernel keeps exactly EvaluatePredicate's rows.
TEST(VectorEvalTest, EdgeOperandComparisonsMatchRowEvaluator) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<Value>> operand_sets = {
      // Typed double columns: the numeric fast paths.
      {Value::Double(nan), Value::Null(), Value::Double(2.0),
       Value::Double(2.5), Value::Double(-0.0), Value::Double(0.0)},
      // Mixed runtime types: demoted columns, the general path.
      {Value::Double(nan), Value::Null(), Value::Int(2), Value::Double(2.0),
       Value::Double(-0.0), Value::Int(0), Value::String("2"),
       Value::String("b"), Value::Bool(true)},
  };
  const Schema schema = Schema::MakeOrDie(
      {{"L", DataType::kDouble}, {"R", DataType::kDouble}});
  for (const std::vector<Value>& operands : operand_sets) {
    std::vector<Record> rows;
    for (const Value& l : operands) {
      for (const Value& r : operands) rows.push_back(Record({l, r}));
    }
    RecordBatch batch = MakeBatch(schema, rows);
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      std::vector<ExprPtr> predicates = {
          Compare(op, Column("L"), Column("R"))};
      for (const Value& v : operands) {
        predicates.push_back(Compare(op, Column("L"), Literal(v)));
        predicates.push_back(Compare(op, Literal(v), Column("R")));
      }
      for (const ExprPtr& pred : predicates) {
        SCOPED_TRACE(pred->ToString());
        ASSERT_TRUE(CanVectorizePredicate(*pred, schema));
        std::vector<uint32_t> sel;
        ASSERT_TRUE(SelectTrueRows(*pred, batch, &sel).ok());
        std::vector<uint32_t> expected;
        for (uint32_t i = 0; i < rows.size(); ++i) {
          auto keep = EvaluatePredicate(*pred, rows[i], schema);
          ASSERT_TRUE(keep.ok()) << keep.status().ToString();
          if (*keep) expected.push_back(i);
        }
        EXPECT_EQ(sel, expected);
      }
    }
  }
}

TEST(KernelsTest, NotNullFilterDropsOnlyNulls) {
  Schema schema = Schema::MakeOrDie({{"A", DataType::kInt64}});
  RecordBatch batch = MakeBatch(
      schema, {Record({Value::Int(1)}), Record({Value::Null()}),
               Record({Value::Int(3)})});
  EXPECT_EQ(kernels::NotNullFilter(batch, 0),
            (std::vector<uint32_t>{0, 2}));
  RecordBatch empty = MakeBatch(schema, {});
  EXPECT_TRUE(kernels::NotNullFilter(empty, 0).empty());
}

TEST(KernelsTest, DomainCheckFilterMatchesRowSemantics) {
  Schema schema = Schema::MakeOrDie({{"A", DataType::kDouble}});
  RecordBatch batch = MakeBatch(
      schema, {Record({Value::Double(0.5)}), Record({Value::Null()}),
               Record({Value::Double(2.0)}), Record({Value::Int(1)})});
  auto sel = kernels::DomainCheckFilter(batch, 0, 0.0, 1.0, "dc", "A");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<uint32_t>{0, 3}));

  // A non-null non-numeric cell reproduces the row engine's error text.
  RecordBatch bad = MakeBatch(schema, {Record({Value::String("x")})});
  auto err = kernels::DomainCheckFilter(bad, 0, 0.0, 1.0, "dc", "A");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("domain check over non-numeric"),
            std::string::npos)
      << err.status().ToString();
}

TEST(KernelsTest, ColumnMappingErrorsOnMissingAttribute) {
  Schema from = Schema::MakeOrDie({{"A", DataType::kInt64},
                                   {"B", DataType::kInt64}});
  Schema to = Schema::MakeOrDie({{"B", DataType::kInt64},
                                 {"C", DataType::kInt64}});
  auto ok = ColumnMapping(
      from, Schema::MakeOrDie({{"B", DataType::kInt64},
                               {"A", DataType::kInt64}}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<size_t>{1, 0}));
  EXPECT_FALSE(ColumnMapping(from, to).ok());
}

// Keep-first across batches and partitions: whatever the partition
// count, the union of kept rows is the serial first occurrence of each
// key, NULL keys included (NULL is an ordinary PK value here, as in the
// row engine).
TEST(KernelsTest, PkKeepPartitionKeepsSerialFirstOccurrence) {
  Schema schema = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"V", DataType::kInt64}});
  std::vector<Record> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(Record({i % 9 == 0 ? Value::Null() : Value::Int(i % 7),
                           Value::Int(i)}));
  }
  std::vector<RecordBatch> batches;
  batches.push_back(RecordBatch::FromRows(schema, rows, 0, 20));
  batches.push_back(RecordBatch::FromRows(schema, rows, 20, 20));  // empty
  batches.push_back(RecordBatch::FromRows(schema, rows, 20, 50));
  std::vector<size_t> key_cols = {0};
  for (auto& b : batches) b.KeyHashes(key_cols);

  // Serial oracle: keep-first via ordered scan.
  std::map<std::vector<Value>, size_t> first;
  std::vector<int> expected_keep(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<Value> key = {rows[i].value(0)};
    if (first.emplace(key, i).second) expected_keep[i] = 1;
  }

  for (size_t parts : {size_t{1}, size_t{3}, size_t{8}}) {
    std::vector<std::vector<uint8_t>> keep(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      keep[b].assign(batches[b].num_rows(), 0);
    }
    for (size_t p = 0; p < parts; ++p) {
      kernels::PkKeepPartition(batches, key_cols, p, parts, &keep);
    }
    size_t global = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      for (size_t i = 0; i < batches[b].num_rows(); ++i, ++global) {
        EXPECT_EQ(static_cast<int>(keep[b][i]), expected_keep[global])
            << "parts=" << parts << " row " << global;
      }
    }
  }
}

TEST(KernelsTest, AggregatePartitionsCoverAllGroupsDisjointly) {
  Schema schema = Schema::MakeOrDie({{"G", DataType::kInt64},
                                     {"X", DataType::kDouble}});
  std::vector<Record> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back(Record({Value::Int(i % 5),
                           i % 11 == 0 ? Value::Null()
                                       : Value::Double(i * 0.25)}));
  }
  std::vector<RecordBatch> batches;
  batches.push_back(RecordBatch::FromRows(schema, rows, 0, 25));
  batches.push_back(RecordBatch::FromRows(schema, rows, 25, 60));
  std::vector<size_t> group_cols = {0};
  std::vector<size_t> arg_cols = {1, 1};
  for (auto& b : batches) b.KeyHashes(group_cols);

  // Serial oracle accumulation.
  kernels::GroupMap oracle;
  for (const auto& r : rows) {
    auto& accs = oracle
                     .emplace(std::vector<Value>{r.value(0)},
                              std::vector<AggAcc>(arg_cols.size()))
                     .first->second;
    for (size_t a = 0; a < arg_cols.size(); ++a) accs[a].Add(r.value(1));
  }

  for (size_t parts : {size_t{1}, size_t{4}}) {
    kernels::GroupMap merged;
    for (size_t p = 0; p < parts; ++p) {
      kernels::GroupMap pg = kernels::AggregatePartition(
          batches, group_cols, arg_cols, p, parts);
      for (auto& [key, accs] : pg) {
        // Disjoint ownership: no key appears in two partitions.
        ASSERT_TRUE(merged.emplace(key, std::move(accs)).second);
      }
    }
    ASSERT_EQ(merged.size(), oracle.size()) << "parts=" << parts;
    for (const auto& [key, accs] : oracle) {
      auto it = merged.find(key);
      ASSERT_NE(it, merged.end());
      for (size_t a = 0; a < accs.size(); ++a) {
        EXPECT_EQ(it->second[a].Result(AggFn::kSum), accs[a].Result(AggFn::kSum));
        EXPECT_EQ(it->second[a].Result(AggFn::kCount),
                  accs[a].Result(AggFn::kCount));
        EXPECT_EQ(it->second[a].Result(AggFn::kAvg), accs[a].Result(AggFn::kAvg));
      }
    }
  }
}

// Build + probe against the row-engine join semantics: NULL keys never
// join, duplicates multiply, emit order is left row order with build
// rows in build order.
TEST(KernelsTest, JoinBuildProbeMatchesRowJoin) {
  Schema left_s = Schema::MakeOrDie({{"K", DataType::kInt64},
                                     {"A", DataType::kInt64}});
  Schema right_s = Schema::MakeOrDie({{"B", DataType::kString},
                                      {"K", DataType::kInt64}});
  Schema out_s = Schema::MakeOrDie({{"K", DataType::kInt64},
                                    {"A", DataType::kInt64},
                                    {"B", DataType::kString}});
  std::vector<Record> left_rows, right_rows;
  for (int i = 0; i < 30; ++i) {
    left_rows.push_back(Record(
        {i % 6 == 0 ? Value::Null() : Value::Int(i % 5), Value::Int(i)}));
  }
  for (int i = 0; i < 20; ++i) {
    right_rows.push_back(Record(
        {Value::String("r" + std::to_string(i)),
         i % 7 == 0 ? Value::Null() : Value::Int(i % 4)}));
  }
  std::vector<RecordBatch> left = BatchRows(left_s, left_rows, 8);
  std::vector<RecordBatch> right = BatchRows(right_s, right_rows, 8);
  std::vector<size_t> left_key = {0}, right_key = {1}, right_pass = {0};
  for (auto& b : left) b.KeyHashes(left_key);
  for (auto& b : right) b.KeyHashes(right_key);

  const size_t parts = 3;
  std::vector<kernels::JoinShard> shards;
  for (size_t p = 0; p < parts; ++p) {
    shards.push_back(kernels::JoinBuildPartition(right, right_key, p, parts));
  }
  std::vector<Record> got;
  for (const auto& lb : left) {
    kernels::JoinProbeBatch(lb, left_key, shards, right, right_pass, out_s)
        .AppendRowsTo(&got);
  }

  // Serial oracle: nested loop in the row engine's emit order.
  std::vector<Record> expected;
  for (const auto& l : left_rows) {
    if (l.value(0).is_null()) continue;
    for (const auto& r : right_rows) {
      if (r.value(1).is_null() || !(r.value(1) == l.value(0))) continue;
      expected.push_back(
          Record({l.value(0), l.value(1), r.value(0)}));
    }
  }
  EXPECT_EQ(got, expected);
}

// ---- Function and SurrogateKey kernels against the row kernels ----

Schema ItemSchema() {
  return Schema::MakeOrDie({{"ID", DataType::kInt64},
                            {"TAG", DataType::kString},
                            {"VAL", DataType::kDouble},
                            {"DAY", DataType::kString}});
}

// Row i: VAL NULL every fourth row, DAY NULL every fifth; DAY is
// "bad<i>" for the rows listed in `bad_days`.
std::vector<Record> ItemRows(size_t n, std::vector<size_t> bad_days = {}) {
  std::vector<Record> rows;
  for (size_t i = 0; i < n; ++i) {
    const bool bad =
        std::find(bad_days.begin(), bad_days.end(), i) != bad_days.end();
    Value day = bad ? Value::String("bad" + std::to_string(i))
                : i % 5 == 0
                    ? Value::Null()
                    : Value::String("0" + std::to_string(1 + i % 9) +
                                    "/1" + std::to_string(i % 10) + "/2004");
    rows.push_back(Record({Value::Int(static_cast<int64_t>(i % 7)),
                           Value::String("t" + std::to_string(i)),
                           i % 4 == 0 ? Value::Null() : Value::Double(i * 2.5),
                           day}));
  }
  return rows;
}

// Same rows, and the same runtime type in every cell (Value equality
// alone would let an int cell stand for an equal double).
void ExpectExactRows(const std::vector<Record>& got,
                     const std::vector<Record>& want) {
  ASSERT_EQ(got, want);
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_EQ(got[r].value(c).type(), want[r].value(c).type())
          << "row " << r << " col " << c;
    }
  }
}

// Runs a 1:1 batch kernel over `rows` cut into batches of 6, stopping at
// the first failing batch, and returns the flattened output.
template <typename Kernel>
StatusOr<std::vector<Record>> RunBatched(const std::vector<Record>& rows,
                                         const Kernel& kernel) {
  std::vector<Record> out;
  for (const RecordBatch& b : BatchRows(ItemSchema(), rows, 6)) {
    ETLOPT_ASSIGN_OR_RETURN(RecordBatch ob, kernel(b));
    ob.AppendRowsTo(&out);
  }
  return out;
}

StatusOr<std::vector<Record>> RunFunctionBatched(
    const Activity& a, const std::vector<Record>& rows) {
  ETLOPT_ASSIGN_OR_RETURN(Schema out, a.ComputeOutputSchema({ItemSchema()}));
  ETLOPT_ASSIGN_OR_RETURN(
      BoundFunction f,
      BindFunction(a.params_as<FunctionParams>(), ItemSchema(), out));
  return RunBatched(rows, [&](const RecordBatch& b) {
    return kernels::FunctionBatch(b, f, out);
  });
}

TEST(KernelsTest, FunctionBatchMatchesRowKernel) {
  const std::vector<Record> rows = ItemRows(23);
  std::vector<Activity> fns = {
      *MakeFunction("to_euro", "dollar2euro", {"VAL"}, "VAL_EUR",
                    DataType::kDouble, {"VAL"}),
      *MakeInPlaceFunction("shout", "upper", "TAG", DataType::kString),
      *MakeInPlaceFunction("eu_day", "a2e_date", "DAY", DataType::kString),
      *MakeFunction("tag_id", "concat", {"TAG", "ID"}, "TAG_ID",
                    DataType::kString),
      // year_of yields ints under a declared string type: the output
      // column demotes to boxed storage and keeps the int cells.
      *MakeFunction("year", "year_of", {"DAY"}, "YEAR", DataType::kString),
  };
  for (const Activity& a : fns) {
    SCOPED_TRACE(a.label());
    auto want = a.Execute({ItemSchema()}, {rows}, ExecutionContext{});
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = RunFunctionBatched(a, rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectExactRows(*got, *want);
  }
}

TEST(KernelsTest, FunctionBatchFailsAtFirstFailingRow) {
  auto a = MakeInPlaceFunction("eu_day", "a2e_date", "DAY", DataType::kString);
  ASSERT_TRUE(a.ok());
  // Rows 8 and 10 share a batch; row 15 sits in a later one.
  const std::vector<Record> rows = ItemRows(20, {10, 8, 15});
  auto want = a->Execute({ItemSchema()}, {rows}, ExecutionContext{});
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().message(), "a2e_date: bad date 'bad8'");
  auto got = RunFunctionBatched(*a, rows);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), want.status().code());
  EXPECT_EQ(got.status().message(), want.status().message());
}

TEST(KernelsTest, BindFunctionRejectsUnregisteredFunction) {
  FunctionParams p;
  p.function = "no_such_fn";
  p.args = {"VAL"};
  p.output = "OUT";
  Schema out = ItemSchema();
  ASSERT_TRUE(out.Append({"OUT", DataType::kDouble}).ok());
  auto f = BindFunction(p, ItemSchema(), out);
  ASSERT_FALSE(f.ok());
  EXPECT_TRUE(f.status().IsNotFound());
  EXPECT_EQ(f.status().message(), "unregistered scalar function: no_such_fn");
}

StatusOr<std::vector<Record>> RunSurrogateKeyBatched(
    const Activity& a, const std::vector<Record>& rows,
    const ExecutionContext& ctx) {
  ETLOPT_ASSIGN_OR_RETURN(Schema out, a.ComputeOutputSchema({ItemSchema()}));
  ETLOPT_ASSIGN_OR_RETURN(BoundSurrogateKey sk,
                          BindSurrogateKey(a, ItemSchema(), out, ctx));
  return RunBatched(rows, [&](const RecordBatch& b) {
    return kernels::SurrogateKeyBatch(b, sk, out, a.label());
  });
}

TEST(KernelsTest, SurrogateKeyBatchMatchesRowKernel) {
  ExecutionContext ctx;
  auto& lut = ctx.lookups["lut"];
  for (int64_t id = 0; id < 7; ++id) {
    // One string surrogate demotes the int output column to boxed storage.
    lut.emplace(std::vector<Value>{Value::Int(id)},
                id == 3 ? Value::String("s3") : Value::Int(100 + id));
  }
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut", {"ID"});
  ASSERT_TRUE(a.ok());
  const std::vector<Record> rows = ItemRows(23);
  auto want = a->Execute({ItemSchema()}, {rows}, ctx);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = RunSurrogateKeyBatched(*a, rows, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectExactRows(*got, *want);
}

TEST(KernelsTest, SurrogateKeyBatchMissMatchesRowKernel) {
  ExecutionContext ctx;
  auto& lut = ctx.lookups["lut"];
  lut.emplace(std::vector<Value>{Value::Int(0)}, Value::Int(100));
  lut.emplace(std::vector<Value>{Value::Int(1)}, Value::Int(101));
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut");
  ASSERT_TRUE(a.ok());
  const std::vector<Record> rows = ItemRows(20);  // ID 2 first at row 2
  auto want = a->Execute({ItemSchema()}, {rows}, ctx);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().message(),
            "activity 'sk': surrogate key miss for (2)");
  auto got = RunSurrogateKeyBatched(*a, rows, ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), want.status().code());
  EXPECT_EQ(got.status().message(), want.status().message());
}

TEST(KernelsTest, BindSurrogateKeyRejectsUnboundTable) {
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut");
  ASSERT_TRUE(a.ok());
  auto out = a->ComputeOutputSchema({ItemSchema()});
  ASSERT_TRUE(out.ok());
  auto sk = BindSurrogateKey(*a, ItemSchema(), *out, ExecutionContext{});
  ASSERT_FALSE(sk.ok());
  EXPECT_TRUE(sk.status().IsNotFound());
  EXPECT_EQ(sk.status().message(),
            "activity 'sk': lookup table 'lut' not bound");
}

}  // namespace
}  // namespace etlopt
