// Vectorized predicate evaluation over RecordBatches.
//
// Compiles a restricted class of Expr trees into per-batch loops:
//
//   supported ::= Compare(operand, operand)
//               | And/Or/Not(supported, ...)
//               | IsNull(column) | IsNotNull(column)
//   operand   ::= column reference present in the schema | literal
//
// Anything else — function calls, arithmetic, columns missing from the
// schema — reports !CanVectorizePredicate and the engine falls back to
// the row path for that activity, which also preserves the row engines'
// error behaviour (e.g. NotFound for unknown columns) exactly.
//
// Results are tri-state per row (SQL three-valued logic): 0 = false,
// 1 = true, 2 = NULL, the bytes of expr.h's Truth. The semantics
// replicate expr.cc bit for bit: comparisons of NULL yield NULL,
// non-null comparisons go through the row path's own CompareValues
// (expr.h) over Value's rank-based total order (int and double compare
// numerically, mixed ranks compare by rank), and AND/OR/NOT combine
// tri-states the way LogicalExpr::Test does. A filter keeps exactly the
// rows whose tri-state is 1, matching EvaluatePredicate's NULL-is-false
// rule.

#ifndef ETLOPT_COLUMNAR_VECTOR_EVAL_H_
#define ETLOPT_COLUMNAR_VECTOR_EVAL_H_

#include <cstdint>
#include <vector>

#include "columnar/record_batch.h"
#include "common/status.h"
#include "expr/expr.h"
#include "schema/schema.h"

namespace etlopt {

/// True iff `expr` is in the supported class above against `schema`.
bool CanVectorizePredicate(const Expr& expr, const Schema& schema);

/// Evaluates `expr` (which must satisfy CanVectorizePredicate) over every
/// row of `batch`, writing one tri-state byte per row into `tri`.
Status EvalPredicateTri(const Expr& expr, const RecordBatch& batch,
                        std::vector<uint8_t>* tri);

/// Appends the ascending indices of rows where `expr` is exactly true.
Status SelectTrueRows(const Expr& expr, const RecordBatch& batch,
                      std::vector<uint32_t>* sel);

}  // namespace etlopt

#endif  // ETLOPT_COLUMNAR_VECTOR_EVAL_H_
