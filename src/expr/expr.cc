#include "expr/expr.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// ---- Scalar function registry ----
// Function-local static reference (never destroyed) per the style guide's
// static-storage rules. Built-ins are installed on first access so every
// entry point sees them.
bool EnsureBuiltinsRegistered();

std::map<std::string, ScalarFn>& RegistryRaw() {
  static auto& m = *new std::map<std::string, ScalarFn>();
  return m;
}

std::map<std::string, ScalarFn>& Registry() {
  static const bool builtins_ready = EnsureBuiltinsRegistered();
  (void)builtins_ready;
  return RegistryRaw();
}

Status ExpectArgs(const std::vector<Value>& args, size_t n,
                  const char* fname) {
  if (args.size() != n) {
    return Status::InvalidArgument(
        StrFormat("%s expects %zu args, got %zu", fname, n, args.size()));
  }
  return Status::OK();
}

// Fixed conversion rate keeps every experiment deterministic.
constexpr double kDollarsPerEuro = 1.25;

StatusOr<Value> FnDollar2Euro(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "dollar2euro"));
  if (args[0].is_null()) return Value::Null();
  return Value::Double(args[0].AsDouble() / kDollarsPerEuro);
}

StatusOr<Value> FnEuro2Dollar(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "euro2dollar"));
  if (args[0].is_null()) return Value::Null();
  return Value::Double(args[0].AsDouble() * kDollarsPerEuro);
}

// The three parts of a date string split at '/', found by scanning (no
// allocation); nullopt unless the string holds exactly two '/'.
struct DateParts {
  std::string_view first, second, third;
};

std::optional<DateParts> SplitDate(std::string_view s) {
  const size_t a = s.find('/');
  if (a == std::string_view::npos) return std::nullopt;
  const size_t b = s.find('/', a + 1);
  if (b == std::string_view::npos) return std::nullopt;
  if (s.find('/', b + 1) != std::string_view::npos) return std::nullopt;
  return DateParts{s.substr(0, a), s.substr(a + 1, b - a - 1),
                   s.substr(b + 1)};
}

// "MM/DD/YYYY" -> "DD/MM/YYYY".
StatusOr<Value> SwapDateParts(const Value& v, const char* fname) {
  if (v.is_null()) return Value::Null();
  if (v.type() != DataType::kString) {
    return Status::InvalidArgument(std::string(fname) +
                                   " expects a string date");
  }
  const std::string& s = v.string_value();
  std::optional<DateParts> parts = SplitDate(s);
  if (!parts.has_value()) {
    return Status::InvalidArgument(std::string(fname) + ": bad date '" + s +
                                   "'");
  }
  std::string out;
  out.reserve(s.size());
  out.append(parts->second).append(1, '/').append(parts->first);
  out.append(1, '/').append(parts->third);
  return Value::String(std::move(out));
}

StatusOr<Value> FnA2EDate(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "a2e_date"));
  return SwapDateParts(args[0], "a2e_date");
}

StatusOr<Value> FnE2ADate(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "e2a_date"));
  return SwapDateParts(args[0], "e2a_date");
}

StatusOr<Value> FnUpper(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "upper"));
  if (args[0].is_null()) return Value::Null();
  if (args[0].type() != DataType::kString)
    return Status::InvalidArgument("upper expects a string");
  std::string s = args[0].string_value();
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return Value::String(std::move(s));
}

StatusOr<Value> FnLower(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "lower"));
  if (args[0].is_null()) return Value::Null();
  if (args[0].type() != DataType::kString)
    return Status::InvalidArgument("lower expects a string");
  std::string s = args[0].string_value();
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return Value::String(std::move(s));
}

StatusOr<Value> FnRound(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "round"));
  if (args[0].is_null()) return Value::Null();
  return Value::Double(std::round(args[0].AsDouble()));
}

StatusOr<Value> FnAbs(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "abs"));
  if (args[0].is_null()) return Value::Null();
  return Value::Double(std::fabs(args[0].AsDouble()));
}

StatusOr<Value> FnConcat(const std::vector<Value>& args) {
  std::string out;
  for (const auto& a : args) {
    if (a.is_null()) return Value::Null();
    out += a.ToString();
  }
  return Value::String(std::move(out));
}

// Year from "DD/MM/YYYY" or "MM/DD/YYYY".
StatusOr<Value> FnYearOf(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "year_of"));
  if (args[0].is_null()) return Value::Null();
  if (args[0].type() != DataType::kString)
    return Status::InvalidArgument("year_of expects a string date");
  std::optional<DateParts> parts = SplitDate(args[0].string_value());
  if (!parts.has_value())
    return Status::InvalidArgument("year_of: bad date '" +
                                   args[0].string_value() + "'");
  return Value::Parse(parts->third, DataType::kInt64);
}

// Month/year grouper "DD/MM/YYYY" -> "MM/YYYY". Used by the monthly
// aggregation of the paper's running example.
StatusOr<Value> FnMonthOf(const std::vector<Value>& args) {
  ETLOPT_RETURN_NOT_OK(ExpectArgs(args, 1, "month_of"));
  if (args[0].is_null()) return Value::Null();
  if (args[0].type() != DataType::kString)
    return Status::InvalidArgument("month_of expects a string date");
  std::optional<DateParts> parts = SplitDate(args[0].string_value());
  if (!parts.has_value())
    return Status::InvalidArgument("month_of: bad date '" +
                                   args[0].string_value() + "'");
  std::string out;
  out.reserve(parts->second.size() + 1 + parts->third.size());
  out.append(parts->second).append(1, '/').append(parts->third);
  return Value::String(std::move(out));
}

bool EnsureBuiltinsRegistered() {
  auto& m = RegistryRaw();
  m.emplace("dollar2euro", &FnDollar2Euro);
  m.emplace("euro2dollar", &FnEuro2Dollar);
  m.emplace("a2e_date", &FnA2EDate);
  m.emplace("e2a_date", &FnE2ADate);
  m.emplace("upper", &FnUpper);
  m.emplace("lower", &FnLower);
  m.emplace("round", &FnRound);
  m.emplace("abs", &FnAbs);
  m.emplace("concat", &FnConcat);
  m.emplace("year_of", &FnYearOf);
  m.emplace("month_of", &FnMonthOf);
  return true;
}

// ---- Predicate truth ----

Truth TruthOf(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return Truth::kNull;
    case DataType::kBool:
      return v.bool_value() ? Truth::kTrue : Truth::kFalse;
    default:
      return Truth::kNotBool;
  }
}

// The Value of a comparison, logical or null-test result (never
// kNotBool).
Value TruthValue(Truth t) {
  return t == Truth::kNull ? Value::Null() : Value::Bool(t == Truth::kTrue);
}

Truth CompareTruth(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Truth::kNull;
  return CompareValues(op, l, r) ? Truth::kTrue : Truth::kFalse;
}

// ---- Node classes ----

class ColumnExpr final : public Expr {
 public:
  explicit ColumnExpr(std::string name,
                      std::optional<size_t> index = std::nullopt)
      : Expr(Kind::kColumn), name_(std::move(name)), index_(index) {}

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(const Value* cell, Cell(record, schema));
    return *cell;
  }

  StatusOr<Truth> Test(const Record& record,
                       const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(const Value* cell, Cell(record, schema));
    return TruthOf(*cell);
  }

  ExprPtr Bind(const Schema& schema) const override {
    return std::make_shared<ColumnExpr>(name_, schema.IndexOf(name_));
  }

  /// The position this column was bound to, if any.
  const std::optional<size_t>& index() const { return index_; }

  /// Status for a record too narrow to hold this (bound) column.
  Status Narrow() const {
    return Status::Internal("record narrower than schema at " + name_);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  std::string ToString() const override { return name_; }

  Parts parts() const override {
    Parts p;
    p.column = &name_;
    return p;
  }

 private:
  StatusOr<const Value*> Cell(const Record& record,
                              const Schema& schema) const {
    auto idx = index_.has_value() ? index_ : schema.IndexOf(name_);
    if (!idx.has_value())
      return Status::NotFound("column not in schema: " + name_);
    if (*idx >= record.size()) return Narrow();
    return &record.value(*idx);
  }

  std::string name_;
  std::optional<size_t> index_;  // set when bound
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(Kind::kLiteral), value_(std::move(v)) {}

  StatusOr<Value> Evaluate(const Record&, const Schema&) const override {
    return value_;
  }

  StatusOr<Truth> Test(const Record&, const Schema&) const override {
    return TruthOf(value_);
  }

  ExprPtr Bind(const Schema&) const override {
    return std::make_shared<LiteralExpr>(value_);
  }

  void CollectColumns(std::vector<std::string>*) const override {}

  std::string ToString() const override {
    if (value_.type() == DataType::kString)
      return "'" + value_.ToString() + "'";
    if (value_.is_null()) return "NULL";
    return value_.ToString();
  }

  Parts parts() const override {
    Parts p;
    p.literal = &value_;
    return p;
  }

 private:
  Value value_;
};

// One side of a comparison read in place: a bound column's cell, or a
// literal's value. Borrows from a child node the comparison holds.
struct CellOperand {
  const ColumnExpr* column = nullptr;  // nullptr: a literal
  size_t index = 0;
  const Value* literal = nullptr;

  // nullptr iff the record is too narrow to hold the column.
  const Value* Read(const Record& record) const {
    if (column == nullptr) return literal;
    return index < record.size() ? &record.value(index) : nullptr;
  }
};

std::optional<CellOperand> CellOperandOf(const Expr& e) {
  if (e.kind() == Expr::Kind::kLiteral) {
    return CellOperand{nullptr, 0, e.parts().literal};
  }
  if (e.kind() == Expr::Kind::kColumn) {
    const auto& column = static_cast<const ColumnExpr&>(e);
    if (column.index().has_value()) {
      return CellOperand{&column, *column.index(), nullptr};
    }
  }
  return std::nullopt;
}

class CompareExpr final : public Expr {
 public:
  // Where both sides are bound columns or literals (a bound tree's
  // (column, op, literal) and (column, op, column) nodes), Test compares
  // the record's cells by reference; otherwise it evaluates both sides.
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kCompare), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {
    std::optional<CellOperand> l = CellOperandOf(*lhs_);
    std::optional<CellOperand> r = CellOperandOf(*rhs_);
    if (l.has_value() && r.has_value()) {
      in_place_ = true;
      lhs_cell_ = *l;
      rhs_cell_ = *r;
    }
  }

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Truth t, Test(record, schema));
    return TruthValue(t);
  }

  StatusOr<Truth> Test(const Record& record,
                       const Schema& schema) const override {
    if (in_place_) {
      const Value* l = lhs_cell_.Read(record);
      if (l == nullptr) return lhs_cell_.column->Narrow();
      const Value* r = rhs_cell_.Read(record);
      if (r == nullptr) return rhs_cell_.column->Narrow();
      return CompareTruth(op_, *l, *r);
    }
    ETLOPT_ASSIGN_OR_RETURN(Value l, lhs_->Evaluate(record, schema));
    ETLOPT_ASSIGN_OR_RETURN(Value r, rhs_->Evaluate(record, schema));
    return CompareTruth(op_, l, r);
  }

  ExprPtr Bind(const Schema& schema) const override {
    return std::make_shared<CompareExpr>(op_, lhs_->Bind(schema),
                                         rhs_->Bind(schema));
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " +
           std::string(CompareOpToString(op_)) + " " + rhs_->ToString() + ")";
  }

  Parts parts() const override {
    Parts p;
    p.lhs = lhs_.get();
    p.rhs = rhs_.get();
    p.cmp = op_;
    return p;
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  bool in_place_ = false;  // both sides read in place
  CellOperand lhs_cell_;
  CellOperand rhs_cell_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kLogical), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Truth t, Test(record, schema));
    return TruthValue(t);
  }

  StatusOr<Truth> Test(const Record& record,
                       const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Truth l, lhs_->Test(record, schema));
    if (op_ == LogicalOp::kNot) {
      switch (l) {
        case Truth::kNull:
          return Truth::kNull;
        case Truth::kNotBool:
          return Status::InvalidArgument("NOT over non-bool");
        case Truth::kTrue:
          return Truth::kFalse;
        case Truth::kFalse:
          return Truth::kTrue;
      }
    }
    ETLOPT_ASSIGN_OR_RETURN(Truth r, rhs_->Test(record, schema));
    // Three-valued logic with NULL.
    if (l == Truth::kNotBool || r == Truth::kNotBool)
      return Status::InvalidArgument("logical op over non-bool");
    if (op_ == LogicalOp::kAnd) {
      if (l == Truth::kFalse || r == Truth::kFalse) return Truth::kFalse;
      if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
      return Truth::kTrue;
    }
    // kOr
    if (l == Truth::kTrue || r == Truth::kTrue) return Truth::kTrue;
    if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
    return Truth::kFalse;
  }

  ExprPtr Bind(const Schema& schema) const override {
    return std::make_shared<LogicalExpr>(
        op_, lhs_->Bind(schema), rhs_ ? rhs_->Bind(schema) : nullptr);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    if (rhs_) rhs_->CollectColumns(out);
  }

  std::string ToString() const override {
    if (op_ == LogicalOp::kNot) return "(NOT " + lhs_->ToString() + ")";
    const char* op = op_ == LogicalOp::kAnd ? "AND" : "OR";
    return "(" + lhs_->ToString() + " " + op + " " + rhs_->ToString() + ")";
  }

  Parts parts() const override {
    Parts p;
    p.lhs = lhs_.get();
    p.rhs = rhs_.get();  // null for kNot
    p.logical = op_;
    return p;
  }

 private:
  LogicalOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;  // null for kNot
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kArith), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Value l, lhs_->Evaluate(record, schema));
    ETLOPT_ASSIGN_OR_RETURN(Value r, rhs_->Evaluate(record, schema));
    if (l.is_null() || r.is_null()) return Value::Null();
    double a = l.AsDouble();
    double b = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Double(a + b);
      case ArithOp::kSub:
        return Value::Double(a - b);
      case ArithOp::kMul:
        return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
    }
    return Status::Internal("bad arith op");
  }

  ExprPtr Bind(const Schema& schema) const override {
    return std::make_shared<ArithExpr>(op_, lhs_->Bind(schema),
                                       rhs_->Bind(schema));
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + std::string(ArithOpToString(op_)) +
           " " + rhs_->ToString() + ")";
  }

  Parts parts() const override {
    Parts p;
    p.lhs = lhs_.get();
    p.rhs = rhs_.get();
    p.arith = op_;
    return p;
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class FunctionExpr final : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args,
               ScalarFn fn = nullptr)
      : Expr(Kind::kFunction), name_(std::move(name)), args_(std::move(args)),
        fn_(fn) {}

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ScalarFn fn = fn_ != nullptr ? fn_ : FindScalarFunction(name_);
    if (fn == nullptr)
      return Status::NotFound("unregistered scalar function: " + name_);
    std::vector<Value> vals;
    vals.reserve(args_.size());
    for (const auto& a : args_) {
      ETLOPT_ASSIGN_OR_RETURN(Value v, a->Evaluate(record, schema));
      vals.push_back(std::move(v));
    }
    return fn(vals);
  }

  ExprPtr Bind(const Schema& schema) const override {
    std::vector<ExprPtr> args;
    args.reserve(args_.size());
    for (const auto& a : args_) args.push_back(a->Bind(schema));
    return std::make_shared<FunctionExpr>(name_, std::move(args),
                                          FindScalarFunction(name_));
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    for (const auto& a : args_) a->CollectColumns(out);
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(args_.size());
    for (const auto& a : args_) parts.push_back(a->ToString());
    return name_ + "(" + Join(parts, ", ") + ")";
  }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  ScalarFn fn_;  // set when bound
};

class NullTestExpr final : public Expr {
 public:
  NullTestExpr(Kind kind, ExprPtr inner)
      : Expr(kind), inner_(std::move(inner)) {}

  StatusOr<Value> Evaluate(const Record& record,
                           const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Truth t, Test(record, schema));
    return TruthValue(t);
  }

  // The inner value is NULL iff its Test is kNull.
  StatusOr<Truth> Test(const Record& record,
                       const Schema& schema) const override {
    ETLOPT_ASSIGN_OR_RETURN(Truth inner, inner_->Test(record, schema));
    const bool isnull = inner == Truth::kNull;
    return isnull == (kind() == Kind::kIsNull) ? Truth::kTrue : Truth::kFalse;
  }

  ExprPtr Bind(const Schema& schema) const override {
    return std::make_shared<NullTestExpr>(kind(), inner_->Bind(schema));
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    inner_->CollectColumns(out);
  }

  std::string ToString() const override {
    return "(" + inner_->ToString() +
           (kind() == Kind::kIsNull ? " IS NULL)" : " IS NOT NULL)");
  }

  Parts parts() const override {
    Parts p;
    p.lhs = inner_.get();
    return p;
  }

 private:
  ExprPtr inner_;
};

}  // namespace

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

std::vector<std::string> Expr::ReferencedColumns() const {
  std::vector<std::string> all;
  CollectColumns(&all);
  std::vector<std::string> out;
  for (auto& n : all) {
    if (std::find(out.begin(), out.end(), n) == out.end())
      out.push_back(std::move(n));
  }
  return out;
}

ExprPtr Column(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}

ExprPtr Literal(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(lhs),
                                       std::move(rhs));
}

ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(lhs),
                                       std::move(rhs));
}

ExprPtr Not(ExprPtr inner) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(inner),
                                       nullptr);
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr IsNull(ExprPtr inner) {
  return std::make_shared<NullTestExpr>(Expr::Kind::kIsNull, std::move(inner));
}

ExprPtr IsNotNull(ExprPtr inner) {
  return std::make_shared<NullTestExpr>(Expr::Kind::kIsNotNull,
                                        std::move(inner));
}

ExprPtr Function(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<FunctionExpr>(std::move(name), std::move(args));
}

Status RegisterScalarFunction(const std::string& name, ScalarFn fn) {
  auto [it, inserted] = Registry().emplace(name, fn);
  (void)it;
  if (!inserted)
    return Status::AlreadyExists("scalar function exists: " + name);
  return Status::OK();
}

bool IsScalarFunctionRegistered(const std::string& name) {
  return FindScalarFunction(name) != nullptr;
}

ScalarFn FindScalarFunction(const std::string& name) {
  auto it = Registry().find(name);
  return it == Registry().end() ? nullptr : it->second;
}

StatusOr<Truth> Expr::Test(const Record& record, const Schema& schema) const {
  ETLOPT_ASSIGN_OR_RETURN(Value v, Evaluate(record, schema));
  return TruthOf(v);
}

StatusOr<bool> EvaluatePredicate(const Expr& expr, const Record& record,
                                 const Schema& schema) {
  ETLOPT_ASSIGN_OR_RETURN(Truth t, expr.Test(record, schema));
  if (t == Truth::kNotBool)
    return Status::InvalidArgument("predicate evaluated to non-bool: " +
                                   expr.ToString());
  return t == Truth::kTrue;
}

}  // namespace etlopt
