// Textual workflow format (.etl): a line-oriented DSL for describing
// design-time ETL workflows, with a parser and printer that round-trip.
//
//   # comment
//   source SRC0 card=12000 schema=K:int,SRC:string,V1:double
//   notnull nn0 in=SRC0 attr=V1 sel=0.9
//   selection sel0 in=nn0 pred=(V1 >= 300) sel=0.5
//   domain dc0 in=sel0 attr=V1 lo=10 hi=900 sel=0.6
//   pkcheck pk0 in=dc0 keys=K sel=0.95
//   project pr0 in=pk0 drop=V1
//   function f0 in=pr0 fn=dollar2euro args=V1 out=V1E:double drop=V1
//   inplace g0 in=f0 fn=a2e_date attr=DATE type=string
//   skey sk0 in=g0 keys=K out=SKEY lut=gen_lut drop=K
//   aggregate ag0 in=sk0 group=SRC,DATE aggs=SUM(V1E)->V1E sel=0.3
//   union u0 in=a,b
//   join j0 in=a,b keys=K sel=0.05
//   difference d0 in=a,b sel=0.5
//   intersection x0 in=a,b sel=0.5
//   target DW in=ag0 schema=SRC:string,DATE:string,V1E:double
//
// Node names are unique identifiers; `in=` wires providers (port order).
// Selection predicates use the canonical fully-parenthesized form that
// Expr::ToString emits, restricted to comparisons, AND/OR/NOT and
// IS [NOT] NULL over columns and literals.

#ifndef ETLOPT_IO_TEXT_FORMAT_H_
#define ETLOPT_IO_TEXT_FORMAT_H_

#include <string>

#include "expr/expr.h"
#include "graph/workflow.h"

namespace etlopt {

/// Parses the DSL into a finalized workflow. Every directive accepts an
/// optional `plabel=` field overriding the execution-priority label that
/// Finalize() would derive — this is how serialized mid-optimization
/// workflows (whose labels were assigned by the *initial* topology and
/// carried through transitions) keep their exact state signature across a
/// round trip.
StatusOr<Workflow> ParseWorkflowText(const std::string& text);

struct TextFormatOptions {
  /// Emit a `plabel=` field on every node. Off by default: a design-time
  /// workflow re-derives identical labels in Finalize(), so plain output
  /// stays clean. The plan format always turns this on.
  bool emit_plabels = false;
};

/// Prints a workflow in the DSL. Fails on merged (multi-member) chains —
/// the format describes design-time workflows, not mid-search states.
StatusOr<std::string> PrintWorkflowText(const Workflow& workflow,
                                        const TextFormatOptions& options = {});

/// Deepest parenthesis nesting a predicate may have; deeper ones are
/// rejected with InvalidArgument. Far above any predicate the examples or
/// the workload generator write.
inline constexpr int kMaxPredicateNesting = 256;

/// Largest source `card` the parser accepts (10^15 rows). Larger finite
/// values are rejected with InvalidArgument: they describe no real source,
/// and their products under joins leave the range where costs print as
/// numbers.
inline constexpr double kMaxSourceCardinality = 1e15;

/// Parses a canonical predicate string ("(V1 >= 300)", "((A > 1) AND
/// (B IS NOT NULL))", ...). Exposed for tests and tools.
StatusOr<ExprPtr> ParsePredicate(const std::string& text);

}  // namespace etlopt

#endif  // ETLOPT_IO_TEXT_FORMAT_H_
