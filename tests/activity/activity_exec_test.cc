#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "activity/binding.h"
#include "activity/templates.h"

namespace etlopt {
namespace {

Schema ItemSchema() {
  return Schema::MakeOrDie({{"ID", DataType::kInt64},
                            {"TAG", DataType::kString},
                            {"VAL", DataType::kDouble}});
}

Record Row(int64_t id, const std::string& tag, double val) {
  return Record({Value::Int(id), Value::String(tag), Value::Double(val)});
}

Record RowNullVal(int64_t id, const std::string& tag) {
  return Record({Value::Int(id), Value::String(tag), Value::Null()});
}

std::vector<Record> Rows() {
  return {Row(1, "a", 10), Row(2, "b", 20), RowNullVal(3, "a"),
          Row(1, "a", 30), Row(4, "c", -5)};
}

StatusOr<std::vector<Record>> RunActivity(const Activity& a,
                                  std::vector<Record> rows,
                                  ExecutionContext ctx = {}) {
  return a.Execute({ItemSchema()}, {std::move(rows)}, ctx);
}

TEST(ExecTest, SelectionFilters) {
  auto a = MakeSelection("s",
                         Compare(CompareOp::kGt, Column("VAL"),
                                 Literal(Value::Double(15.0))),
                         0.5);
  auto out = RunActivity(*a, Rows());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // 20 and 30; NULL predicate is false
  EXPECT_EQ((*out)[0].value(2).double_value(), 20);
  EXPECT_EQ((*out)[1].value(2).double_value(), 30);
}

TEST(ExecTest, NotNullDropsNulls) {
  auto a = MakeNotNull("nn", "VAL", 0.9);
  auto out = RunActivity(*a, Rows());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 4u);
}

TEST(ExecTest, DomainCheckKeepsRange) {
  auto a = MakeDomainCheck("dc", "VAL", 0.0, 20.0, 0.5);
  auto out = RunActivity(*a, Rows());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // 10 and 20; NULL and -5 dropped
}

TEST(ExecTest, DomainCheckNonNumericFails) {
  auto a = MakeDomainCheck("dc", "TAG", 0.0, 20.0, 0.5);
  EXPECT_FALSE(RunActivity(*a, Rows()).ok());
}

TEST(ExecTest, PrimaryKeyKeepsFirst) {
  auto a = MakePrimaryKeyCheck("pk", {"ID"}, 0.9);
  auto out = RunActivity(*a, Rows());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);  // second ID=1 dropped
  EXPECT_EQ((*out)[0].value(2).double_value(), 10);  // first ID=1 kept
}

TEST(ExecTest, ProjectionReshapesRows) {
  auto a = MakeProjection("p", {"TAG"});
  auto out = RunActivity(*a, {Row(1, "a", 10)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].size(), 2u);
  EXPECT_EQ((*out)[0].value(0).int_value(), 1);
  EXPECT_EQ((*out)[0].value(1).double_value(), 10);
}

TEST(ExecTest, FunctionComputesAndDropsArgs) {
  auto a = MakeFunction("f", "dollar2euro", {"VAL"}, "VAL_EUR",
                        DataType::kDouble, {"VAL"});
  auto out = RunActivity(*a, {Row(1, "a", 10)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].size(), 3u);
  EXPECT_DOUBLE_EQ((*out)[0].value(2).double_value(), 8.0);  // 10 / 1.25
}

TEST(ExecTest, InPlaceFunctionUpdatesColumn) {
  auto a = MakeInPlaceFunction("f", "upper", "TAG", DataType::kString);
  auto out = RunActivity(*a, {Row(1, "abc", 10)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].value(1).string_value(), "ABC");
  EXPECT_EQ((*out)[0].size(), 3u);
}

TEST(ExecTest, FunctionNullArgumentGivesNull) {
  auto a = MakeFunction("f", "dollar2euro", {"VAL"}, "VAL_EUR",
                        DataType::kDouble, {"VAL"});
  auto out = RunActivity(*a, {RowNullVal(3, "a"), Row(1, "a", 10)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_TRUE((*out)[0].value(2).is_null());
  EXPECT_DOUBLE_EQ((*out)[1].value(2).double_value(), 8.0);
}

TEST(ExecTest, FunctionOverZeroRowsIsOk) {
  auto a = MakeFunction("f", "dollar2euro", {"VAL"}, "VAL_EUR",
                        DataType::kDouble);
  auto out = RunActivity(*a, {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
}

TEST(ExecTest, FunctionMissingArgumentColumnFails) {
  auto a = MakeFunction("f", "dollar2euro", {"PRICE"}, "PRICE_EUR",
                        DataType::kDouble);
  auto out = RunActivity(*a, {Row(1, "a", 10)});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsFailedPrecondition()) << out.status().ToString();
  EXPECT_NE(out.status().message().find("arg attribute 'PRICE' missing"),
            std::string::npos)
      << out.status().ToString();
}

// The error is the first failing row's, in input order.
TEST(ExecTest, FunctionFailsAtFirstFailingRow) {
  auto a = MakeInPlaceFunction("f", "a2e_date", "TAG", DataType::kString);
  auto out = RunActivity(
      *a, {Row(1, "01/02/2004", 1), Row(2, "x1", 2), Row(3, "x2", 3)});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
  EXPECT_EQ(out.status().message(), "a2e_date: bad date 'x1'");
}

TEST(ExecTest, SurrogateKeyLooksUp) {
  ExecutionContext ctx;
  ctx.lookups["lut"].emplace(std::vector<Value>{Value::Int(1)},
                             Value::Int(101));
  ctx.lookups["lut"].emplace(std::vector<Value>{Value::Int(2)},
                             Value::Int(102));
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut", {"ID"});
  auto out = RunActivity(*a, {Row(1, "a", 10), Row(2, "b", 20)}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  // Schema: TAG, VAL, SKEY.
  EXPECT_EQ((*out)[0].value(2).int_value(), 101);
  EXPECT_EQ((*out)[1].value(2).int_value(), 102);
}

TEST(ExecTest, SurrogateKeyMissFails) {
  ExecutionContext ctx;
  ctx.lookups["lut"];  // empty table
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut");
  EXPECT_TRUE(RunActivity(*a, {Row(1, "a", 10)}, ctx).status().IsNotFound());
}

TEST(ExecTest, SurrogateKeyUnboundTableFails) {
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut");
  EXPECT_TRUE(RunActivity(*a, {Row(1, "a", 10)}).status().IsNotFound());
}

TEST(ExecTest, SurrogateKeyUnboundTableFailsWithoutRows) {
  auto a = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut");
  auto out = RunActivity(*a, {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(),
            "activity 'sk': lookup table 'lut' not bound");
}

TEST(ExecTest, SurrogateKeyMissNamesFirstMissingKey) {
  auto a = MakeSurrogateKey("sk", {"ID", "TAG"}, "SKEY", "lut");
  ExecutionContext ctx;
  ctx.lookups["lut"].emplace(
      std::vector<Value>{Value::Int(1), Value::String("a")}, Value::Int(101));
  auto out = RunActivity(*a, {Row(1, "a", 10), Row(4, "c", 1), Row(5, "d", 2)},
                         ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsNotFound());
  EXPECT_EQ(out.status().message(),
            "activity 'sk': surrogate key miss for (4,c)");
}

// A NaN key equals no entry, so it misses: Value's ordering treats NaN
// as equivalent to every key, and an ordered-map lookup used to return
// the table's first surrogate for it.
TEST(ExecTest, SurrogateKeyNaNKeyMisses) {
  ExecutionContext ctx;
  for (int64_t k = 1; k <= 3; ++k) {
    ctx.lookups["lut"].emplace(std::vector<Value>{Value::Int(k)},
                               Value::Int(100 + k));
  }
  auto a = MakeSurrogateKey("sk", {"VAL"}, "SKEY", "lut", {"VAL"});
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  auto out = RunActivity(
      *a, {Row(1, "a", 2), Record({Value::Int(2), Value::String("b"), nan})},
      ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status(), SurrogateKeyMiss("sk", {nan}));
}

// Otherwise a key matches the entries the ordered map calls equivalent:
// numerically equal int and double cells, and -0.0 with 0.
TEST(ExecTest, SurrogateKeyEqualNumbersHit) {
  ExecutionContext ctx;
  ctx.lookups["lut"].emplace(std::vector<Value>{Value::Double(2.0)},
                             Value::Int(102));
  ctx.lookups["lut"].emplace(std::vector<Value>{Value::Int(0)},
                             Value::Int(100));
  auto by_id = MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut", {"ID"});
  auto out = RunActivity(*by_id, {Row(2, "a", 10), Row(0, "b", 20)}, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].value(2), Value::Int(102));
  EXPECT_EQ((*out)[1].value(2), Value::Int(100));
  auto by_val = MakeSurrogateKey("sk", {"VAL"}, "SKEY", "lut", {"VAL"});
  out = RunActivity(*by_val, {Row(1, "a", -0.0), Row(2, "b", 2.0)}, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].value(2), Value::Int(100));
  EXPECT_EQ((*out)[1].value(2), Value::Int(102));
}

TEST(ExecTest, AggregationSumPerGroup) {
  auto a = MakeAggregation("g", {"TAG"}, {{AggFn::kSum, "VAL", "TOTAL"}}, 0.5);
  auto out = RunActivity(*a, Rows());
  ASSERT_TRUE(out.ok());
  // Groups sorted by key: a, b, c.
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].value(0).string_value(), "a");
  EXPECT_DOUBLE_EQ((*out)[0].value(1).double_value(), 40.0);  // 10+30, NULL skipped
  EXPECT_DOUBLE_EQ((*out)[1].value(1).double_value(), 20.0);
  EXPECT_DOUBLE_EQ((*out)[2].value(1).double_value(), -5.0);
}

TEST(ExecTest, AggregationAllFns) {
  auto a = MakeAggregation("g", {"TAG"},
                           {{AggFn::kSum, "VAL", "S"},
                            {AggFn::kMin, "VAL", "MN"},
                            {AggFn::kMax, "VAL", "MX"},
                            {AggFn::kCount, "VAL", "N"},
                            {AggFn::kAvg, "VAL", "AV"}},
                           0.5);
  auto out = RunActivity(*a, {Row(1, "a", 10), Row(2, "a", 30), RowNullVal(3, "a")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const Record& r = (*out)[0];
  EXPECT_DOUBLE_EQ(r.value(1).double_value(), 40.0);
  EXPECT_DOUBLE_EQ(r.value(2).double_value(), 10.0);
  EXPECT_DOUBLE_EQ(r.value(3).double_value(), 30.0);
  EXPECT_EQ(r.value(4).int_value(), 2);  // NULL not counted
  EXPECT_DOUBLE_EQ(r.value(5).double_value(), 20.0);
}

TEST(ExecTest, AggregationAllNullGroup) {
  auto a = MakeAggregation("g", {"TAG"},
                           {{AggFn::kSum, "VAL", "S"},
                            {AggFn::kCount, "VAL", "N"}},
                           0.5);
  auto out = RunActivity(*a, {RowNullVal(1, "z")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE((*out)[0].value(1).is_null());
  EXPECT_EQ((*out)[0].value(2).int_value(), 0);
}

TEST(ExecTest, UnionConcatenatesAndRealigns) {
  auto u = MakeUnion("u");
  Schema right = Schema::MakeOrDie({{"VAL", DataType::kDouble},
                                    {"ID", DataType::kInt64},
                                    {"TAG", DataType::kString}});
  std::vector<Record> right_rows = {
      Record({Value::Double(99), Value::Int(7), Value::String("z")})};
  auto out = u->Execute({ItemSchema(), right},
                        {{Row(1, "a", 10)}, right_rows}, {});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  // Right row realigned to left layout (ID, TAG, VAL).
  EXPECT_EQ((*out)[1].value(0).int_value(), 7);
  EXPECT_EQ((*out)[1].value(1).string_value(), "z");
  EXPECT_DOUBLE_EQ((*out)[1].value(2).double_value(), 99);
}

TEST(ExecTest, DifferenceBagSemantics) {
  auto d = MakeDifference("d", 0.5);
  std::vector<Record> left = {Row(1, "a", 10), Row(1, "a", 10),
                              Row(2, "b", 20)};
  std::vector<Record> right = {Row(1, "a", 10)};
  auto out = d->Execute({ItemSchema(), ItemSchema()}, {left, right}, {});
  ASSERT_TRUE(out.ok());
  // One copy of (1,a,10) subtracted; the duplicate survives.
  ASSERT_EQ(out->size(), 2u);
}

TEST(ExecTest, IntersectionBagSemantics) {
  auto x = MakeIntersection("i", 0.5);
  std::vector<Record> left = {Row(1, "a", 10), Row(1, "a", 10),
                              Row(2, "b", 20)};
  std::vector<Record> right = {Row(1, "a", 10), Row(3, "c", 30)};
  auto out = x->Execute({ItemSchema(), ItemSchema()}, {left, right}, {});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value(0).int_value(), 1);
}

TEST(ExecTest, JoinInnerEquiJoin) {
  auto j = MakeJoin("j", {"ID"}, 0.5);
  Schema right = Schema::MakeOrDie({{"ID", DataType::kInt64},
                                    {"EXTRA", DataType::kString}});
  std::vector<Record> right_rows = {
      Record({Value::Int(1), Value::String("x")}),
      Record({Value::Int(1), Value::String("y")}),
      Record({Value::Int(9), Value::String("z")})};
  auto out = j->Execute({ItemSchema(), right},
                        {{Row(1, "a", 10), Row(2, "b", 20)}, right_rows}, {});
  ASSERT_TRUE(out.ok());
  // ID=1 matches twice; ID=2 unmatched.
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].size(), 4u);
  EXPECT_EQ((*out)[0].value(3).string_value(), "x");
  EXPECT_EQ((*out)[1].value(3).string_value(), "y");
}

TEST(ExecTest, JoinNullKeysNeverMatch) {
  auto j = MakeJoin("j", {"VAL"}, 0.5);
  Schema right = Schema::MakeOrDie({{"VAL", DataType::kDouble},
                                    {"EXTRA", DataType::kString}});
  std::vector<Record> right_rows = {
      Record({Value::Null(), Value::String("x")})};
  auto out =
      j->Execute({ItemSchema(), right}, {{RowNullVal(1, "a")}, right_rows}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// Execute takes ownership of its input flows. A caller that keeps its
// rows hands over a copy; the kernels edit only that copy, and the result
// is the one the moved-in flow gives.
TEST(ExecTest, ExecuteOnACopyLeavesCallerRowsUnchanged) {
  ExecutionContext ctx;
  for (int64_t id = 1; id <= 4; ++id) {
    ctx.lookups["lut"].emplace(std::vector<Value>{Value::Int(id)},
                               Value::Int(100 + id));
  }
  const Schema item = ItemSchema();
  const Schema permuted = Schema::MakeOrDie({{"VAL", DataType::kDouble},
                                             {"ID", DataType::kInt64},
                                             {"TAG", DataType::kString}});
  const Schema extra = Schema::MakeOrDie({{"ID", DataType::kInt64},
                                          {"EXTRA", DataType::kString}});
  const std::vector<Record> permuted_rows = {
      Record({Value::Double(99), Value::Int(7), Value::String("z")}),
      Record({Value::Double(10), Value::Int(1), Value::String("a")})};
  const std::vector<Record> extra_rows = {
      Record({Value::Int(1), Value::String("x")}),
      Record({Value::Int(1), Value::String("y")}),
      Record({Value::Int(4), Value::String("w")})};
  const std::vector<Record> some_rows = {Row(1, "a", 10), Row(4, "c", -5)};

  struct Case {
    StatusOr<Activity> activity;
    std::vector<Schema> schemas;
    std::vector<std::vector<Record>> inputs;
  };
  std::vector<Case> cases;
  auto unary = [&](StatusOr<Activity> a) {
    cases.push_back({std::move(a), {item}, {Rows()}});
  };
  unary(MakeSelection("s",
                      Compare(CompareOp::kGt, Column("VAL"),
                              Literal(Value::Double(15.0))),
                      0.5));
  unary(MakeNotNull("nn", "VAL", 0.9));
  unary(MakeDomainCheck("dc", "VAL", 0.0, 20.0, 0.5));
  unary(MakePrimaryKeyCheck("pk", {"ID"}, 0.9));
  unary(MakeProjection("p", {"TAG"}));
  unary(MakeFunction("f", "dollar2euro", {"VAL"}, "VAL_EUR",
                     DataType::kDouble, {"VAL"}));
  unary(MakeInPlaceFunction("up", "upper", "TAG", DataType::kString));
  unary(MakeSurrogateKey("sk", {"ID"}, "SKEY", "lut", {"ID"}));
  unary(MakeAggregation("g", {"TAG"}, {{AggFn::kSum, "VAL", "TOTAL"}}, 0.5));
  cases.push_back({MakeUnion("u"), {item, permuted}, {Rows(), permuted_rows}});
  cases.push_back({MakeJoin("j", {"ID"}, 0.5), {item, extra},
                   {Rows(), extra_rows}});
  cases.push_back(
      {MakeDifference("d", 0.5), {item, item}, {Rows(), some_rows}});
  cases.push_back(
      {MakeIntersection("x", 0.5), {item, item}, {Rows(), some_rows}});

  std::set<ActivityKind> kinds;
  for (Case& c : cases) {
    ASSERT_TRUE(c.activity.ok()) << c.activity.status().ToString();
    const Activity& a = *c.activity;
    kinds.insert(a.kind());
    const std::vector<std::vector<Record>> before = c.inputs;
    auto on_copy = a.Execute(c.schemas, c.inputs, ctx);
    ASSERT_TRUE(on_copy.ok()) << a.label() << ": "
                              << on_copy.status().ToString();
    EXPECT_EQ(c.inputs, before) << a.label();
    auto on_moved = a.Execute(c.schemas, std::move(c.inputs), ctx);
    ASSERT_TRUE(on_moved.ok()) << a.label();
    EXPECT_EQ(*on_copy, *on_moved) << a.label();
  }
  EXPECT_EQ(kinds.size(), 12u);
}

}  // namespace
}  // namespace etlopt
