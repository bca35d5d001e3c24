#include "expr/expr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

namespace etlopt {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Schema schema_ = Schema::MakeOrDie({{"COST", DataType::kDouble},
                                      {"DATE", DataType::kString},
                                      {"QTY", DataType::kInt64}});
  Record row_{std::vector<Value>{Value::Double(120.0),
                                 Value::String("07/25/2004"),
                                 Value::Int(3)}};
};

TEST_F(ExprTest, ColumnLookup) {
  auto v = Column("QTY")->Evaluate(row_, schema_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 3);
}

TEST_F(ExprTest, ColumnMissingIsNotFound) {
  EXPECT_TRUE(Column("NOPE")->Evaluate(row_, schema_).status().IsNotFound());
}

TEST_F(ExprTest, LiteralEvaluatesToItself) {
  auto v = Literal(Value::String("x"))->Evaluate(row_, schema_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "x");
}

TEST_F(ExprTest, Comparisons) {
  auto gt = Compare(CompareOp::kGt, Column("COST"),
                    Literal(Value::Double(100.0)));
  EXPECT_TRUE(gt->Evaluate(row_, schema_)->bool_value());
  auto le = Compare(CompareOp::kLe, Column("COST"),
                    Literal(Value::Double(100.0)));
  EXPECT_FALSE(le->Evaluate(row_, schema_)->bool_value());
  auto eq = Compare(CompareOp::kEq, Column("QTY"), Literal(Value::Int(3)));
  EXPECT_TRUE(eq->Evaluate(row_, schema_)->bool_value());
  auto ne = Compare(CompareOp::kNe, Column("QTY"), Literal(Value::Int(3)));
  EXPECT_FALSE(ne->Evaluate(row_, schema_)->bool_value());
}

TEST_F(ExprTest, ComparisonWithNullYieldsNull) {
  Record with_null({Value::Null(), Value::String("d"), Value::Int(1)});
  auto gt = Compare(CompareOp::kGt, Column("COST"),
                    Literal(Value::Double(100.0)));
  auto v = gt->Evaluate(with_null, schema_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  // And the predicate wrapper treats it as false.
  auto p = EvaluatePredicate(*gt, with_null, schema_);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(*p);
}

TEST_F(ExprTest, LogicalOps) {
  auto t = Literal(Value::Bool(true));
  auto f = Literal(Value::Bool(false));
  EXPECT_TRUE(And(t, t)->Evaluate(row_, schema_)->bool_value());
  EXPECT_FALSE(And(t, f)->Evaluate(row_, schema_)->bool_value());
  EXPECT_TRUE(Or(f, t)->Evaluate(row_, schema_)->bool_value());
  EXPECT_FALSE(Or(f, f)->Evaluate(row_, schema_)->bool_value());
  EXPECT_FALSE(Not(t)->Evaluate(row_, schema_)->bool_value());
}

TEST_F(ExprTest, ThreeValuedLogic) {
  auto t = Literal(Value::Bool(true));
  auto f = Literal(Value::Bool(false));
  auto n = Literal(Value::Null());
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_FALSE(And(f, n)->Evaluate(row_, schema_)->bool_value());
  EXPECT_TRUE(And(t, n)->Evaluate(row_, schema_)->is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_TRUE(Or(t, n)->Evaluate(row_, schema_)->bool_value());
  EXPECT_TRUE(Or(f, n)->Evaluate(row_, schema_)->is_null());
  EXPECT_TRUE(Not(n)->Evaluate(row_, schema_)->is_null());
}

TEST_F(ExprTest, Arithmetic) {
  auto sum = Arith(ArithOp::kAdd, Column("COST"), Literal(Value::Double(5)));
  EXPECT_DOUBLE_EQ(sum->Evaluate(row_, schema_)->double_value(), 125.0);
  auto prod = Arith(ArithOp::kMul, Column("QTY"), Literal(Value::Int(4)));
  EXPECT_DOUBLE_EQ(prod->Evaluate(row_, schema_)->double_value(), 12.0);
  auto div0 =
      Arith(ArithOp::kDiv, Column("COST"), Literal(Value::Double(0.0)));
  EXPECT_FALSE(div0->Evaluate(row_, schema_).ok());
}

TEST_F(ExprTest, NullTests) {
  Record with_null({Value::Null(), Value::String("d"), Value::Int(1)});
  EXPECT_TRUE(
      IsNull(Column("COST"))->Evaluate(with_null, schema_)->bool_value());
  EXPECT_FALSE(
      IsNotNull(Column("COST"))->Evaluate(with_null, schema_)->bool_value());
  EXPECT_TRUE(IsNotNull(Column("COST"))->Evaluate(row_, schema_)->bool_value());
}

TEST_F(ExprTest, Dollar2EuroFunction) {
  auto e = Function("dollar2euro", {Column("COST")});
  auto v = e->Evaluate(row_, schema_);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 120.0 / 1.25);
}

TEST_F(ExprTest, CurrencyFunctionsInvert) {
  auto there = Function("dollar2euro", {Literal(Value::Double(50.0))});
  auto back =
      Function("euro2dollar", {Function("dollar2euro",
                                        {Literal(Value::Double(50.0))})});
  EXPECT_DOUBLE_EQ(back->Evaluate(row_, schema_)->double_value(), 50.0);
  EXPECT_LT(there->Evaluate(row_, schema_)->double_value(), 50.0);
}

TEST_F(ExprTest, DateConversionFunctions) {
  auto a2e = Function("a2e_date", {Column("DATE")});
  auto v = a2e->Evaluate(row_, schema_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "25/07/2004");  // MM/DD -> DD/MM
  auto roundtrip = Function("e2a_date", {a2e});
  EXPECT_EQ(roundtrip->Evaluate(row_, schema_)->string_value(), "07/25/2004");
}

TEST_F(ExprTest, DateConversionRejectsMalformed) {
  auto e = Function("a2e_date", {Literal(Value::String("2004-07-25"))});
  EXPECT_FALSE(e->Evaluate(row_, schema_).ok());
}

TEST_F(ExprTest, StringFunctions) {
  EXPECT_EQ(Function("upper", {Literal(Value::String("ab"))})
                ->Evaluate(row_, schema_)
                ->string_value(),
            "AB");
  EXPECT_EQ(Function("lower", {Literal(Value::String("AB"))})
                ->Evaluate(row_, schema_)
                ->string_value(),
            "ab");
  EXPECT_EQ(Function("concat", {Literal(Value::String("a")),
                                Literal(Value::Int(1))})
                ->Evaluate(row_, schema_)
                ->string_value(),
            "a1");
}

TEST_F(ExprTest, NumericFunctions) {
  EXPECT_DOUBLE_EQ(Function("round", {Literal(Value::Double(2.6))})
                       ->Evaluate(row_, schema_)
                       ->double_value(),
                   3.0);
  EXPECT_DOUBLE_EQ(Function("abs", {Literal(Value::Double(-2.5))})
                       ->Evaluate(row_, schema_)
                       ->double_value(),
                   2.5);
}

TEST_F(ExprTest, DatePartFunctions) {
  EXPECT_EQ(Function("year_of", {Column("DATE")})
                ->Evaluate(row_, schema_)
                ->int_value(),
            2004);
  EXPECT_EQ(Function("month_of", {Literal(Value::String("25/07/2004"))})
                ->Evaluate(row_, schema_)
                ->string_value(),
            "07/2004");
}

TEST_F(ExprTest, FunctionsPropagateNull) {
  auto e = Function("dollar2euro", {Literal(Value::Null())});
  EXPECT_TRUE(e->Evaluate(row_, schema_)->is_null());
  EXPECT_TRUE(Function("upper", {Literal(Value::Null())})
                  ->Evaluate(row_, schema_)
                  ->is_null());
}

TEST_F(ExprTest, UnknownFunctionIsNotFound) {
  auto e = Function("no_such_fn", {Column("COST")});
  EXPECT_TRUE(e->Evaluate(row_, schema_).status().IsNotFound());
  EXPECT_FALSE(IsScalarFunctionRegistered("no_such_fn"));
  EXPECT_TRUE(IsScalarFunctionRegistered("dollar2euro"));
}

StatusOr<Value> FnConstant(const std::vector<Value>&) {
  return Value::Int(77);
}

TEST_F(ExprTest, UserRegisteredFunction) {
  ASSERT_TRUE(RegisterScalarFunction("test_constant77", &FnConstant).ok());
  EXPECT_TRUE(
      RegisterScalarFunction("test_constant77", &FnConstant).IsAlreadyExists());
  auto e = Function("test_constant77", {});
  EXPECT_EQ(e->Evaluate(row_, schema_)->int_value(), 77);
}

TEST_F(ExprTest, ReferencedColumnsDeduplicated) {
  auto e = And(Compare(CompareOp::kGt, Column("COST"),
                       Literal(Value::Double(0))),
               Compare(CompareOp::kLt, Column("COST"), Column("QTY")));
  EXPECT_EQ(e->ReferencedColumns(),
            (std::vector<std::string>{"COST", "QTY"}));
}

TEST_F(ExprTest, ToStringCanonicalForms) {
  auto e = Compare(CompareOp::kGe, Column("COST"),
                   Literal(Value::Double(100.0)));
  EXPECT_EQ(e->ToString(), "(COST >= 100)");
  EXPECT_EQ(Function("dollar2euro", {Column("COST")})->ToString(),
            "dollar2euro(COST)");
  EXPECT_EQ(IsNotNull(Column("X"))->ToString(), "(X IS NOT NULL)");
  EXPECT_EQ(Literal(Value::String("s"))->ToString(), "'s'");
  EXPECT_EQ(Literal(Value::Null())->ToString(), "NULL");
}

TEST_F(ExprTest, PredicateRejectsNonBool) {
  auto e = Column("COST");
  EXPECT_FALSE(EvaluatePredicate(*e, row_, schema_).ok());
}

// A bound tree gives the unbound tree's value or Status on every row —
// including a column or function that does not resolve, and a record
// narrower than the schema — and prints the same.
TEST_F(ExprTest, BoundTreeEvaluatesLikeUnbound) {
  std::vector<ExprPtr> exprs = {
      And(Compare(CompareOp::kGe, Column("COST"),
                  Literal(Value::Double(100.0))),
          Not(IsNull(Column("DATE")))),
      Or(Compare(CompareOp::kLt, Arith(ArithOp::kDiv, Column("COST"),
                                       Column("QTY")),
                 Literal(Value::Double(10))),
         IsNotNull(Function("a2e_date", {Column("DATE")}))),
      Function("concat", {Column("DATE"), Column("QTY")}),
      Column("MISSING"),
      Function("no_such_fn", {Column("COST")}),
      And(Column("COST"), Literal(Value::Bool(true))),
      Arith(ArithOp::kDiv, Column("COST"), Literal(Value::Double(0))),
  };
  std::vector<Record> rows = {
      row_,
      Record({Value::Null(), Value::String("bad"), Value::Int(0)}),
      Record({Value::Double(5), Value::Null(), Value::Int(2)}),
      Record({Value::Double(5)}),  // narrower than the schema
  };
  for (const ExprPtr& e : exprs) {
    ExprPtr bound = e->Bind(schema_);
    EXPECT_EQ(bound->ToString(), e->ToString());
    EXPECT_EQ(bound->ReferencedColumns(), e->ReferencedColumns());
    for (const Record& r : rows) {
      SCOPED_TRACE(e->ToString() + " on " + r.ToString());
      auto want = e->Evaluate(r, schema_);
      auto got = bound->Evaluate(r, schema_);
      ASSERT_EQ(got.ok(), want.ok());
      if (want.ok()) {
        EXPECT_EQ(*got, *want);
        EXPECT_EQ(got->type(), want->type());
      } else {
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
      }
    }
  }
}

// Every CompareOp over the operands a comparison must keep exact: NaN,
// NULL, int against double, string against number, bool against the
// rest. Each op's string holds one character per (lhs, rhs) pair, lhs
// major, over EdgeOperands(): T true, F false, N NULL. The strings were
// recorded from the tree-walking evaluator before comparisons were bound
// to cells; every form of the comparison (literal or column on either
// side, bound or not) and EvaluatePredicate must keep giving them.
std::vector<Value> EdgeOperands() {
  return {Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Null(),
          Value::Int(2),
          Value::Double(2.0),
          Value::Double(2.5),
          Value::Double(-0.0),
          Value::Int(0),
          Value::String("2"),
          Value::String("b"),
          Value::Bool(true)};
}

char TriChar(const StatusOr<Value>& v) {
  if (!v.ok()) return '!';
  if (v->is_null()) return 'N';
  if (v->type() != DataType::kBool) return '?';
  return v->bool_value() ? 'T' : 'F';
}

TEST_F(ExprTest, CompareOpsOverEdgeOperandsArePinned) {
  const std::vector<std::pair<CompareOp, std::string>> pinned = {
      {CompareOp::kEq,
       "FNFFFFFFFF" "NNNNNNNNNN" "FNTTFFFFFF" "FNTTFFFFFF" "FNFFTFFFFF"
       "FNFFFTTFFF" "FNFFFTTFFF" "FNFFFFFTFF" "FNFFFFFFTF" "FNFFFFFFFT"},
      {CompareOp::kNe,
       "TNTTTTTTTT" "NNNNNNNNNN" "TNFFTTTTTT" "TNFFTTTTTT" "TNTTFTTTTT"
       "TNTTTFFTTT" "TNTTTFFTTT" "TNTTTTTFTT" "TNTTTTTTFT" "TNTTTTTTTF"},
      {CompareOp::kLt,
       "FNFFFFFTTF" "NNNNNNNNNN" "FNFFTFFTTF" "FNFFTFFTTF" "FNFFFFFTTF"
       "FNTTTFFTTF" "FNTTTFFTTF" "FNFFFFFFTF" "FNFFFFFFFF" "TNTTTTTTTF"},
      {CompareOp::kLe,
       "TNTTTTTTTF" "NNNNNNNNNN" "TNTTTFFTTF" "TNTTTFFTTF" "TNFFTFFTTF"
       "TNTTTTTTTF" "TNTTTTTTTF" "FNFFFFFTTF" "FNFFFFFFTF" "TNTTTTTTTT"},
      {CompareOp::kGt,
       "FNFFFFFFFT" "NNNNNNNNNN" "FNFFFTTFFT" "FNFFFTTFFT" "FNTTFTTFFT"
       "FNFFFFFFFT" "FNFFFFFFFT" "TNTTTTTFFT" "TNTTTTTTFT" "FNFFFFFFFF"},
      {CompareOp::kGe,
       "TNTTTTTFFT" "NNNNNNNNNN" "TNTTFTTFFT" "TNTTFTTFFT" "TNTTTTTFFT"
       "TNFFFTTFFT" "TNFFFTTFFT" "TNTTTTTTFT" "TNTTTTTTTT" "FNFFFFFFFT"},
  };
  const std::vector<Value> operands = EdgeOperands();
  const Schema lr = Schema::MakeOrDie(
      {{"L", DataType::kDouble}, {"R", DataType::kDouble}});
  for (const auto& [op, want] : pinned) {
    SCOPED_TRACE(std::string(CompareOpToString(op)));
    // Literal/literal, column/literal, literal/column, column/column;
    // each unbound and bound.
    std::vector<std::string> got(8);
    std::string predicate;
    for (const Value& l : operands) {
      for (const Value& r : operands) {
        const Record row({l, r});
        const std::vector<ExprPtr> forms = {
            Compare(op, Literal(l), Literal(r)),
            Compare(op, Column("L"), Literal(r)),
            Compare(op, Literal(l), Column("R")),
            Compare(op, Column("L"), Column("R"))};
        for (size_t f = 0; f < forms.size(); ++f) {
          got[2 * f].push_back(TriChar(forms[f]->Evaluate(row, lr)));
          got[2 * f + 1].push_back(
              TriChar(forms[f]->Bind(lr)->Evaluate(row, lr)));
        }
        auto p = EvaluatePredicate(*forms[3]->Bind(lr), row, lr);
        predicate.push_back(!p.ok() ? '!' : *p ? 'T' : 'F');
      }
    }
    for (size_t f = 0; f < got.size(); ++f) {
      EXPECT_EQ(got[f], want) << "form " << f;
    }
    std::string want_predicate = want;
    std::replace(want_predicate.begin(), want_predicate.end(), 'N', 'F');
    EXPECT_EQ(predicate, want_predicate);
  }
}

// The errors a predicate can raise, with their exact text.
TEST_F(ExprTest, PredicateErrorsArePinned) {
  const Schema lr = Schema::MakeOrDie(
      {{"L", DataType::kDouble}, {"R", DataType::kBool}});
  const Record row({Value::Double(1.5), Value::Bool(true)});
  const Record narrow({Value::Double(1.5)});
  struct Case {
    ExprPtr expr;
    Record row;
    std::string message;
  };
  const std::vector<Case> cases = {
      {Column("L"), row, "predicate evaluated to non-bool: L"},
      {Not(Column("L")), row, "NOT over non-bool"},
      {And(Column("R"), Column("L")), row, "logical op over non-bool"},
      {Or(Literal(Value::Int(1)), Column("R")), row,
       "logical op over non-bool"},
      {Compare(CompareOp::kLt, Column("X"), Literal(Value::Int(1))), row,
       "column not in schema: X"},
      {Compare(CompareOp::kLt, Literal(Value::Int(1)), Column("R")), narrow,
       "record narrower than schema at R"},
      {Compare(CompareOp::kEq, Column("X"), Column("R")), narrow,
       "column not in schema: X"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr->ToString());
    for (const ExprPtr& e : {c.expr, c.expr->Bind(lr)}) {
      auto p = EvaluatePredicate(*e, c.row, lr);
      ASSERT_FALSE(p.ok());
      EXPECT_EQ(p.status().message(), c.message);
    }
  }
}

}  // namespace
}  // namespace etlopt
