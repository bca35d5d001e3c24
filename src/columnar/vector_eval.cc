#include "columnar/vector_eval.h"

#include "common/macros.h"

namespace etlopt {

namespace {

// One side of a compiled comparison: a resolved column index or a
// literal borrowed from the Expr tree (valid for the tree's lifetime).
struct Operand {
  bool is_column = false;
  size_t col = 0;
  const Value* literal = nullptr;
};

bool CompileOperand(const Expr& e, const Schema& schema, Operand* op) {
  Expr::Parts p = e.parts();
  if (e.kind() == Expr::Kind::kColumn && p.column != nullptr) {
    auto idx = schema.IndexOf(*p.column);
    if (!idx.has_value()) return false;
    op->is_column = true;
    op->col = *idx;
    return true;
  }
  if (e.kind() == Expr::Kind::kLiteral && p.literal != nullptr) {
    op->literal = p.literal;
    return true;
  }
  return false;
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

// A numeric column usable by the typed fast path, presented as a
// per-row double getter regardless of int64/double storage.
struct NumericColumn {
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* nulls = nullptr;
  double At(size_t i) const {
    return ints != nullptr ? static_cast<double>(ints[i]) : doubles[i];
  }
};

bool AsNumericColumn(const ColumnVector& c, NumericColumn* out) {
  if (c.boxed() || !IsNumeric(c.declared_type())) return false;
  out->nulls = c.null_bytes();
  if (c.declared_type() == DataType::kInt64) {
    out->ints = c.ints();
  } else {
    out->doubles = c.doubles();
  }
  return true;
}

Status EvalCompare(CompareOp op, const Operand& lhs, const Operand& rhs,
                   const RecordBatch& batch, std::vector<uint8_t>* tri) {
  const size_t n = batch.num_rows();
  tri->resize(n);

  // Typed fast paths: numeric column vs numeric literal (either side)
  // and numeric column vs numeric column.
  NumericColumn lc, rc;
  const bool l_num_col =
      lhs.is_column && AsNumericColumn(batch.column(lhs.col), &lc);
  const bool r_num_col =
      rhs.is_column && AsNumericColumn(batch.column(rhs.col), &rc);
  const bool l_num_lit =
      lhs.literal != nullptr && IsNumeric(lhs.literal->type());
  const bool r_num_lit =
      rhs.literal != nullptr && IsNumeric(rhs.literal->type());

  if (l_num_col && r_num_lit) {
    const double b = rhs.literal->AsDouble();
    for (size_t i = 0; i < n; ++i) {
      (*tri)[i] = lc.nulls[i] ? 2 : (CompareValues(op, lc.At(i), b) ? 1 : 0);
    }
    return Status::OK();
  }
  if (l_num_lit && r_num_col) {
    const double a = lhs.literal->AsDouble();
    for (size_t i = 0; i < n; ++i) {
      (*tri)[i] = rc.nulls[i] ? 2 : (CompareValues(op, a, rc.At(i)) ? 1 : 0);
    }
    return Status::OK();
  }
  if (l_num_col && r_num_col) {
    for (size_t i = 0; i < n; ++i) {
      (*tri)[i] = (lc.nulls[i] || rc.nulls[i])
                      ? 2
                      : (CompareValues(op, lc.At(i), rc.At(i)) ? 1 : 0);
    }
    return Status::OK();
  }

  // General path: box column cells and use Value's operators directly.
  // Still avoids the row path's per-row schema lookup and virtual
  // dispatch.
  Value l_cell, r_cell;
  for (size_t i = 0; i < n; ++i) {
    if (lhs.is_column) l_cell = batch.column(lhs.col).ValueAt(i);
    if (rhs.is_column) r_cell = batch.column(rhs.col).ValueAt(i);
    const Value& l = lhs.is_column ? l_cell : *lhs.literal;
    const Value& r = rhs.is_column ? r_cell : *rhs.literal;
    if (l.is_null() || r.is_null()) {
      (*tri)[i] = 2;
    } else {
      (*tri)[i] = CompareValues(op, l, r) ? 1 : 0;
    }
  }
  return Status::OK();
}

}  // namespace

bool CanVectorizePredicate(const Expr& expr, const Schema& schema) {
  Expr::Parts p = expr.parts();
  switch (expr.kind()) {
    case Expr::Kind::kCompare: {
      Operand l, r;
      return p.lhs != nullptr && p.rhs != nullptr &&
             CompileOperand(*p.lhs, schema, &l) &&
             CompileOperand(*p.rhs, schema, &r);
    }
    case Expr::Kind::kLogical: {
      if (p.lhs == nullptr || !CanVectorizePredicate(*p.lhs, schema)) {
        return false;
      }
      if (p.logical == LogicalOp::kNot) return true;
      return p.rhs != nullptr && CanVectorizePredicate(*p.rhs, schema);
    }
    case Expr::Kind::kIsNull:
    case Expr::Kind::kIsNotNull: {
      if (p.lhs == nullptr || p.lhs->kind() != Expr::Kind::kColumn) {
        return false;
      }
      Expr::Parts inner = p.lhs->parts();
      return inner.column != nullptr && schema.Contains(*inner.column);
    }
    default:
      return false;
  }
}

Status EvalPredicateTri(const Expr& expr, const RecordBatch& batch,
                        std::vector<uint8_t>* tri) {
  Expr::Parts p = expr.parts();
  switch (expr.kind()) {
    case Expr::Kind::kCompare: {
      Operand l, r;
      if (p.lhs == nullptr || p.rhs == nullptr ||
          !CompileOperand(*p.lhs, batch.schema(), &l) ||
          !CompileOperand(*p.rhs, batch.schema(), &r)) {
        return Status::Internal("vector_eval: unsupported compare operand");
      }
      return EvalCompare(p.cmp, l, r, batch, tri);
    }
    case Expr::Kind::kLogical: {
      if (p.lhs == nullptr) {
        return Status::Internal("vector_eval: logical without lhs");
      }
      ETLOPT_RETURN_NOT_OK(EvalPredicateTri(*p.lhs, batch, tri));
      if (p.logical == LogicalOp::kNot) {
        for (auto& t : *tri) {
          if (t != 2) t = t == 0 ? 1 : 0;
        }
        return Status::OK();
      }
      std::vector<uint8_t> rhs_tri;
      if (p.rhs == nullptr) {
        return Status::Internal("vector_eval: binary logical without rhs");
      }
      ETLOPT_RETURN_NOT_OK(EvalPredicateTri(*p.rhs, batch, &rhs_tri));
      if (p.logical == LogicalOp::kAnd) {
        for (size_t i = 0; i < tri->size(); ++i) {
          uint8_t a = (*tri)[i], b = rhs_tri[i];
          (*tri)[i] = (a == 0 || b == 0) ? 0 : ((a == 2 || b == 2) ? 2 : 1);
        }
      } else {
        for (size_t i = 0; i < tri->size(); ++i) {
          uint8_t a = (*tri)[i], b = rhs_tri[i];
          (*tri)[i] = (a == 1 || b == 1) ? 1 : ((a == 2 || b == 2) ? 2 : 0);
        }
      }
      return Status::OK();
    }
    case Expr::Kind::kIsNull:
    case Expr::Kind::kIsNotNull: {
      Expr::Parts inner = p.lhs != nullptr ? p.lhs->parts() : Expr::Parts{};
      if (inner.column == nullptr) {
        return Status::Internal("vector_eval: null test over non-column");
      }
      auto idx = batch.schema().IndexOf(*inner.column);
      if (!idx.has_value()) {
        return Status::Internal("vector_eval: null-test column missing");
      }
      const uint8_t* nulls = batch.column(*idx).null_bytes();
      const bool want_null = expr.kind() == Expr::Kind::kIsNull;
      tri->resize(batch.num_rows());
      for (size_t i = 0; i < batch.num_rows(); ++i) {
        (*tri)[i] = ((nulls[i] != 0) == want_null) ? 1 : 0;
      }
      return Status::OK();
    }
    default:
      return Status::Internal("vector_eval: unsupported predicate shape");
  }
}

Status SelectTrueRows(const Expr& expr, const RecordBatch& batch,
                      std::vector<uint32_t>* sel) {
  std::vector<uint8_t> tri;
  ETLOPT_RETURN_NOT_OK(EvalPredicateTri(expr, batch, &tri));
  for (size_t i = 0; i < tri.size(); ++i) {
    if (tri[i] == 1) sel->push_back(static_cast<uint32_t>(i));
  }
  return Status::OK();
}

}  // namespace etlopt
