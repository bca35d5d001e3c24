// Expr: immutable scalar/boolean expression trees.
//
// Activities carry their semantics as relational algebra extended with
// functions (paper §2.1). Selection predicates and function applications
// are represented with this small AST. Nodes are immutable and shared
// (states copy workflows frequently during search).

#ifndef ETLOPT_EXPR_EXPR_H_
#define ETLOPT_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Comparison and logical operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpToString(CompareOp op);
std::string_view ArithOpToString(ArithOp op);

/// `a op b` for two non-null operands of one ordered type: Values under
/// their rank-based total order, or plain doubles. Every comparison in
/// the program — the row path and the vectorized kernels — is spelled
/// here, with == and < and their negations only (never <= or >=), so a
/// NaN operand gives false for =, < and > and true for <>, <= and >=.
template <typename T>
inline bool CompareValues(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return !(a == b);
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return !(b < a);
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kGe:
      return !(a < b);
  }
  return false;
}

/// A node's value read as a predicate: three-valued logic plus "not a
/// bool" (a type error only the consumer can word). kFalse, kTrue and
/// kNull are the per-row bytes of columnar/vector_eval.h.
enum class Truth : uint8_t { kFalse = 0, kTrue = 1, kNull = 2, kNotBool = 3 };

/// An immutable expression node.
///
/// SQL-ish NULL semantics: comparisons and arithmetic involving NULL yield
/// NULL; a NULL predicate result is treated as false by filters; IsNull /
/// IsNotNull test NULL-ness directly.
class Expr {
 public:
  enum class Kind {
    kColumn,    // reference-attribute name
    kLiteral,   // constant Value
    kCompare,   // lhs op rhs
    kLogical,   // and/or/not
    kArith,     // lhs op rhs
    kFunction,  // named scalar function over args
    kIsNull,
    kIsNotNull,
  };

  /// Structural view of one node, for external walkers (the vectorized
  /// expression compiler in src/columnar/). Pointers reference data owned
  /// by the node and stay valid for the node's lifetime. Fields not
  /// meaningful for a kind are null / default: kColumn sets `column`,
  /// kLiteral sets `literal`, kCompare sets lhs/rhs/cmp, kLogical sets
  /// lhs/logical (and rhs unless kNot), kArith sets lhs/rhs/arith,
  /// kIsNull/kIsNotNull set lhs to the tested subexpression. kFunction
  /// exposes nothing (walkers must treat it as opaque and fall back to
  /// row-at-a-time Evaluate).
  struct Parts {
    const Expr* lhs = nullptr;
    const Expr* rhs = nullptr;
    const Value* literal = nullptr;
    const std::string* column = nullptr;
    CompareOp cmp = CompareOp::kEq;
    LogicalOp logical = LogicalOp::kAnd;
    ArithOp arith = ArithOp::kAdd;
  };

  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  Kind kind() const { return kind_; }

  /// Structural decomposition of this node (see Parts). The default is
  /// the all-null view, which walkers read as "opaque node".
  virtual Parts parts() const { return {}; }

  /// Evaluates against one record laid out by `schema`.
  virtual StatusOr<Value> Evaluate(const Record& record,
                                   const Schema& schema) const = 0;

  /// Evaluate's result read as a predicate, with Evaluate's errors. The
  /// default evaluates the Value; comparisons, logic, null tests, columns
  /// and literals answer without building one, and a comparison whose
  /// sides are bound columns or literals reads both cells in place.
  virtual StatusOr<Truth> Test(const Record& record,
                               const Schema& schema) const;

  /// A copy of this tree bound to `schema`: column references carry
  /// their positions and function calls their registered ScalarFn, so
  /// Evaluate does no name lookup per row, and comparisons of bound
  /// columns and literals compare the record's cells by reference.
  /// Evaluate it only on records laid out by `schema`; its results and
  /// errors are this tree's (a column or function that does not resolve
  /// stays unbound and fails as it would unbound). ToString,
  /// CollectColumns and parts are unchanged.
  virtual ExprPtr Bind(const Schema& schema) const = 0;

  /// Appends the names of all referenced columns (with duplicates).
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  /// Canonical text form; equal text implies equal semantics for the
  /// homologous-activity test (§3.2).
  virtual std::string ToString() const = 0;

  /// Distinct referenced column names, in first-appearance order.
  std::vector<std::string> ReferencedColumns() const;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// --- Factory functions (the public construction API) ---

ExprPtr Column(std::string name);
ExprPtr Literal(Value v);
ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr inner);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr IsNull(ExprPtr inner);
ExprPtr IsNotNull(ExprPtr inner);

/// Calls a registered scalar function (see RegisterScalarFunction).
ExprPtr Function(std::string name, std::vector<ExprPtr> args);

/// Signature of a user-registerable scalar function.
using ScalarFn = StatusOr<Value> (*)(const std::vector<Value>& args);

/// Registers `fn` under `name`; AlreadyExists if the name is taken.
/// Built-ins registered at startup: dollar2euro, euro2dollar, a2e_date,
/// e2a_date, upper, lower, round, abs, concat, year_of.
Status RegisterScalarFunction(const std::string& name, ScalarFn fn);

/// True iff `name` resolves to a registered scalar function.
bool IsScalarFunctionRegistered(const std::string& name);

/// The function registered under `name`, or nullptr. Registration only
/// adds entries, so a kernel may resolve a name once and call the pointer
/// for every row.
ScalarFn FindScalarFunction(const std::string& name);

/// Evaluates a predicate through Expr::Test: NULL is false, and a
/// non-bool result is InvalidArgument "predicate evaluated to non-bool:
/// <expr>".
StatusOr<bool> EvaluatePredicate(const Expr& expr, const Record& record,
                                 const Schema& schema);

}  // namespace etlopt

#endif  // ETLOPT_EXPR_EXPR_H_
