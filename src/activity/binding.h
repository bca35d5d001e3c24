// Binding: activity parameters resolved against a concrete input layout.
//
// Activities name attributes; rows and batches are positional. Every
// kernel — the row kernels in Activity::Execute and the columnar
// kernels — turns names into positions (and a Function's name into its
// ScalarFn) once per call, before its row loop, with the helpers below.
// No kernel looks a name up inside a row loop.
//
// The name-resolution errors here are Internal: Activity::
// ComputeOutputSchema has already checked that every named attribute is
// present, so they mark a bug, not bad input.

#ifndef ETLOPT_ACTIVITY_BINDING_H_
#define ETLOPT_ACTIVITY_BINDING_H_

#include <string>
#include <vector>

#include "activity/activity.h"
#include "common/statusor.h"
#include "expr/expr.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

/// Positions of `attrs` within `schema`; Internal if one is missing.
StatusOr<std::vector<size_t>> AttrIndices(
    const Schema& schema, const std::vector<std::string>& attrs);

/// The values of `row` at positions `idx`, in order.
std::vector<Value> ExtractKey(const Record& row,
                              const std::vector<size_t>& idx);

/// True iff any value of `key` is NULL (NULL keys never join).
bool HasNull(const std::vector<Value>& key);

/// Positions of the right join input's attributes that are not join keys
/// (in schema order): the columns a join appends to each left row.
std::vector<size_t> JoinPassthrough(const Schema& right,
                                    const std::vector<std::string>& keys);

/// Column indices of `from` producing `to`'s attribute order (the
/// realign/projection mapping); Internal error if an attribute of `to`
/// is missing from `from`.
StatusOr<std::vector<size_t>> ColumnMapping(const Schema& from,
                                            const Schema& to);

/// `row` (laid out by some `from`) rearranged by a ColumnMapping. Moves
/// the cells; a mapping that only drops cells or moves them left
/// (mapping[j] >= j, as for a projection) edits the row in place.
Record Realign(Record row, const std::vector<size_t>& mapping);

/// The output layout of a Function or SurrogateKey activity: output
/// column `computed` holds the kernel's value, every other output column
/// i takes input column `source[i]` (`source[computed]` is unused). The
/// passthrough sources ascend: the output schema is the input minus the
/// dropped attributes, in input order (Schema::Minus), with the computed
/// attribute replacing an argument or appended.
struct DerivedLayout {
  std::vector<size_t> source;
  size_t computed = 0;

  /// The output row for input `row` and computed cell `value`, built in
  /// `row`'s own storage: the passthrough cells shift left, then `value`
  /// is inserted at `computed`.
  Record Assemble(Record row, Value value) const;
};

/// A Function activity bound to its input layout.
struct BoundFunction {
  ScalarFn fn = nullptr;
  std::vector<size_t> args;  // input positions, in call order
  DerivedLayout layout;
};

/// Resolves `p` against `in` (producing `out`, the activity's output
/// schema). NotFound "unregistered scalar function: <name>" if the
/// function is not registered.
StatusOr<BoundFunction> BindFunction(const FunctionParams& p, const Schema& in,
                                     const Schema& out);

/// A SurrogateKey activity bound to its input layout and to the hash
/// index of its lookup table.
struct BoundSurrogateKey {
  const LookupIndex* index = nullptr;
  std::vector<size_t> keys;  // input positions of the key attributes
  DerivedLayout layout;
};

/// Resolves `activity` (a SurrogateKey) against `in` and `ctx`, building
/// the table's index if no copy of the table has yet. NotFound
/// "activity '<label>': lookup table '<name>' not bound" if `ctx` lacks
/// the table — raised whether or not any rows flow.
StatusOr<BoundSurrogateKey> BindSurrogateKey(const Activity& activity,
                                             const Schema& in,
                                             const Schema& out,
                                             const ExecutionContext& ctx);

/// The NotFound a surrogate-key lookup miss raises, naming the key.
Status SurrogateKeyMiss(const std::string& label,
                        const std::vector<Value>& key);

}  // namespace etlopt

#endif  // ETLOPT_ACTIVITY_BINDING_H_
