// Activity: the unit of work in an ETL workflow (paper §2.1, §3.2).
//
// An activity is the quadruple (Id, I, O, S): identifier, input schemata,
// output schemata, and semantics. Semantics are drawn from a template
// library in the spirit of ARKTOS II (paper ref [18]): each template has a
// fixed algebraic meaning parameterized by attributes/expressions, and
// exposes the three auxiliary schemata the optimizer reasons with:
//
//  * functionality (necessary) schema — attributes read by the computation;
//  * generated schema                — attributes newly created;
//  * projected-out schema            — attributes dropped from the flow.
//
// Beyond the paper's three schemata we track a fourth derived set,
// ValueChangedAttrs(): attributes whose *content* denotes a new real-world
// entity after the activity (function outputs under rename semantics,
// surrogate keys, aggregate results). This operationalizes the naming
// principle (§3.1): a downstream activity whose functionality schema
// intersects an upstream activity's value-changed set is semantically
// anchored after it, which is exactly what blocks pushing sigma(EUR) before
// the $2E conversion while still allowing the aggregation to slide before
// the (entity-preserving) date-format conversion A2E.

#ifndef ETLOPT_ACTIVITY_ACTIVITY_H_
#define ETLOPT_ACTIVITY_ACTIVITY_H_

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "activity/lookup_table.h"
#include "common/statusor.h"
#include "expr/expr.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

/// The template an activity instantiates.
enum class ActivityKind : int {
  // Unary filters.
  kSelection = 0,       // keep rows satisfying a predicate
  kNotNull = 1,         // keep rows whose attribute is non-NULL
  kDomainCheck = 2,     // keep rows whose numeric attribute lies in [lo, hi]
  kPrimaryKeyCheck = 3, // keep the first row per key (duplicate removal)
  // Unary transformations.
  kProjection = 4,      // drop attributes
  kFunction = 5,        // out = f(args), optionally dropping args
  kSurrogateKey = 6,    // assign surrogate key via lookup table
  kAggregation = 7,     // group-by + aggregates
  // Binary.
  kUnion = 8,
  kJoin = 9,            // natural equi-join on named keys
  kDifference = 10,     // bag difference (left minus right)
  kIntersection = 11,   // bag intersection
};

std::string_view ActivityKindToString(ActivityKind kind);
bool IsUnaryKind(ActivityKind kind);
bool IsBinaryKind(ActivityKind kind);

/// Aggregate functions for kAggregation.
enum class AggFn : int { kSum = 0, kMin = 1, kMax = 2, kCount = 3, kAvg = 4 };

std::string_view AggFnToString(AggFn fn);

/// One aggregate column: `output = fn(arg)` per group.
struct AggSpec {
  AggFn fn = AggFn::kSum;
  std::string arg;
  std::string output;
};

// ---- Per-template parameter structs ----

struct SelectionParams {
  ExprPtr predicate;
};

struct NotNullParams {
  std::string attr;
};

struct DomainCheckParams {
  std::string attr;
  double lo = 0.0;
  double hi = 0.0;
};

struct PrimaryKeyParams {
  std::vector<std::string> key_attrs;
};

struct ProjectionParams {
  std::vector<std::string> drop_attrs;
};

struct FunctionParams {
  /// Registered scalar function name (see expr/expr.h).
  std::string function;
  /// Input attributes, passed in order.
  std::vector<std::string> args;
  /// Output attribute. May equal an arg for in-place transforms.
  std::string output;
  DataType output_type = DataType::kDouble;
  /// True when the transform preserves the real-world entity (e.g. date
  /// format conversion): the output keeps its reference name and imposes
  /// no ordering constraint on consumers. False for entity-changing
  /// transforms (e.g. currency conversion), whose output is a new entity.
  bool entity_preserving = false;
  /// Args to drop from the flow (rename semantics).
  std::vector<std::string> drop_args;
};

struct SurrogateKeyParams {
  /// Attributes forming the lookup key, e.g. {PKEY, SOURCE}.
  std::vector<std::string> key_attrs;
  /// Generated surrogate-key attribute (int).
  std::string output;
  /// Name of the lookup table in the ExecutionContext.
  std::string lookup_name;
  /// Key attributes to drop once the surrogate key is assigned.
  std::vector<std::string> drop_attrs;
};

struct AggregationParams {
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggregates;
};

struct UnionParams {};

struct JoinParams {
  std::vector<std::string> key_attrs;
};

struct DifferenceParams {};

struct IntersectionParams {};

using ActivityParams =
    std::variant<SelectionParams, NotNullParams, DomainCheckParams,
                 PrimaryKeyParams, ProjectionParams, FunctionParams,
                 SurrogateKeyParams, AggregationParams, UnionParams,
                 JoinParams, DifferenceParams, IntersectionParams>;

/// Runtime environment for executing activities: named surrogate-key
/// lookup tables (composite key values -> surrogate id). Copying a
/// context shares its tables and their indexes (see LookupTable).
struct ExecutionContext {
  std::map<std::string, LookupTable> lookups;
};

/// An instantiated activity template.
///
/// Activities are immutable values: transitions copy workflows wholesale,
/// so cheap copying (shared ExprPtr, small vectors) matters.
class Activity {
 public:
  /// Validates `params` against `kind` (variant alternative must match,
  /// template-specific invariants must hold) and builds the activity.
  /// `selectivity` is the estimated output/input cardinality ratio used by
  /// cost models (the paper assigns these per activity).
  static StatusOr<Activity> Make(std::string label, ActivityKind kind,
                                 ActivityParams params,
                                 double selectivity = 1.0);

  ActivityKind kind() const { return kind_; }
  const std::string& label() const { return label_; }
  double selectivity() const { return selectivity_; }
  const ActivityParams& params() const { return params_; }

  bool is_unary() const { return IsUnaryKind(kind_); }
  bool is_binary() const { return IsBinaryKind(kind_); }
  int input_arity() const { return is_binary() ? 2 : 1; }

  /// Typed parameter access; aborts on kind mismatch (programming error).
  template <typename T>
  const T& params_as() const {
    return std::get<T>(params_);
  }

  /// Functionality (necessary) schema: attributes the computation reads.
  std::vector<std::string> FunctionalityAttrs() const;

  /// Attributes whose content is a *new real-world entity* downstream of
  /// this activity (see file comment). A consumer reading any of these
  /// cannot be swapped above this activity.
  std::vector<std::string> ValueChangedAttrs() const;

  /// Declared projected-out schema.
  std::vector<std::string> ProjectedOutAttrs() const;

  /// Names of attributes this activity introduces (generated schema).
  std::vector<std::string> GeneratedAttrNames() const;

  /// Derives the output schema from input schemata, enforcing the
  /// template invariants (functionality coverage, name collisions, binary
  /// schema compatibility). This is the engine of automatic schema
  /// (re)generation after transitions (paper §3.2).
  StatusOr<Schema> ComputeOutputSchema(const std::vector<Schema>& inputs) const;

  /// Canonical algebraic form, e.g. "SEL[(COST_EUR >= 100)]". Two
  /// activities with equal semantics strings perform the same operation
  /// (the homologous-activity test, §3.2), and this string doubles as the
  /// activity's post-condition predicate (§3.4).
  std::string SemanticsString() const;

  /// Returns a copy with a different estimated selectivity (semantics
  /// unchanged); used by selectivity calibration.
  Activity WithSelectivity(double selectivity) const {
    Activity copy = *this;
    copy.selectivity_ = selectivity;
    return copy;
  }

  /// Executes the activity over materialized inputs. Takes ownership of
  /// `inputs`: the kernels move and edit those rows instead of copying
  /// them. A caller that still needs its rows passes a copy.
  StatusOr<std::vector<Record>> Execute(
      const std::vector<Schema>& input_schemas,
      std::vector<std::vector<Record>> inputs,
      const ExecutionContext& ctx) const;

 private:
  Activity(std::string label, ActivityKind kind, ActivityParams params,
           double selectivity)
      : label_(std::move(label)), kind_(kind), params_(std::move(params)),
        selectivity_(selectivity) {}

  std::string label_;
  ActivityKind kind_;
  ActivityParams params_;
  double selectivity_;
};

}  // namespace etlopt

#endif  // ETLOPT_ACTIVITY_ACTIVITY_H_
