#include "activity/activity.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Expected variant index per kind; the two enums are kept in lockstep.
size_t ExpectedParamsIndex(ActivityKind kind) {
  return static_cast<size_t>(kind);
}

Status CheckNoDuplicates(const std::vector<std::string>& names,
                         const char* what) {
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        return Status::InvalidArgument(StrFormat(
            "duplicate %s attribute '%s'", what, names[i].c_str()));
      }
    }
  }
  return Status::OK();
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

Status CheckSubset(const std::vector<std::string>& sub,
                   const std::vector<std::string>& super, const char* what) {
  for (const auto& s : sub) {
    if (!Contains(super, s)) {
      return Status::InvalidArgument(
          StrFormat("%s: '%s' is not available", what, s.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

std::string_view ActivityKindToString(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kSelection:
      return "SEL";
    case ActivityKind::kNotNull:
      return "NN";
    case ActivityKind::kDomainCheck:
      return "DOM";
    case ActivityKind::kPrimaryKeyCheck:
      return "PK";
    case ActivityKind::kProjection:
      return "PROJ";
    case ActivityKind::kFunction:
      return "FN";
    case ActivityKind::kSurrogateKey:
      return "SK";
    case ActivityKind::kAggregation:
      return "AGG";
    case ActivityKind::kUnion:
      return "UNION";
    case ActivityKind::kJoin:
      return "JOIN";
    case ActivityKind::kDifference:
      return "DIFF";
    case ActivityKind::kIntersection:
      return "INTERSECT";
  }
  return "UNKNOWN";
}

bool IsUnaryKind(ActivityKind kind) { return !IsBinaryKind(kind); }

bool IsBinaryKind(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kUnion:
    case ActivityKind::kJoin:
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      return true;
    default:
      return false;
  }
}

std::string_view AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

StatusOr<Activity> Activity::Make(std::string label, ActivityKind kind,
                                  ActivityParams params, double selectivity) {
  if (params.index() != ExpectedParamsIndex(kind)) {
    return Status::InvalidArgument(
        StrFormat("activity '%s': params do not match kind %s", label.c_str(),
                  std::string(ActivityKindToString(kind)).c_str()));
  }
  // Written so that NaN fails every comparison and is rejected.
  if (!(selectivity > 0.0 && selectivity <= 1.0)) {
    if (!(kind == ActivityKind::kJoin && selectivity > 0.0 &&
          std::isfinite(selectivity))) {
      return Status::InvalidArgument(StrFormat(
          "activity '%s': selectivity %.4f out of (0, 1]", label.c_str(),
          selectivity));
    }
  }
  // Template-specific invariants.
  switch (kind) {
    case ActivityKind::kSelection: {
      const auto& p = std::get<SelectionParams>(params);
      if (p.predicate == nullptr)
        return Status::InvalidArgument("selection: missing predicate");
      break;
    }
    case ActivityKind::kNotNull: {
      const auto& p = std::get<NotNullParams>(params);
      if (p.attr.empty())
        return Status::InvalidArgument("not-null: missing attribute");
      break;
    }
    case ActivityKind::kDomainCheck: {
      const auto& p = std::get<DomainCheckParams>(params);
      if (p.attr.empty())
        return Status::InvalidArgument("domain-check: missing attribute");
      if (p.lo > p.hi)
        return Status::InvalidArgument("domain-check: lo > hi");
      break;
    }
    case ActivityKind::kPrimaryKeyCheck: {
      const auto& p = std::get<PrimaryKeyParams>(params);
      if (p.key_attrs.empty())
        return Status::InvalidArgument("pk-check: empty key");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.key_attrs, "key"));
      break;
    }
    case ActivityKind::kProjection: {
      const auto& p = std::get<ProjectionParams>(params);
      if (p.drop_attrs.empty())
        return Status::InvalidArgument("projection: nothing to drop");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.drop_attrs, "drop"));
      break;
    }
    case ActivityKind::kFunction: {
      const auto& p = std::get<FunctionParams>(params);
      if (p.function.empty() || p.output.empty())
        return Status::InvalidArgument("function: missing name or output");
      if (!IsScalarFunctionRegistered(p.function))
        return Status::NotFound("function: unregistered scalar function '" +
                                p.function + "'");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.args, "arg"));
      ETLOPT_RETURN_NOT_OK(CheckSubset(p.drop_args, p.args,
                                       "function drop_args"));
      if (Contains(p.drop_args, p.output)) {
        return Status::InvalidArgument(
            "function: output attribute cannot be dropped");
      }
      break;
    }
    case ActivityKind::kSurrogateKey: {
      const auto& p = std::get<SurrogateKeyParams>(params);
      if (p.key_attrs.empty() || p.output.empty() || p.lookup_name.empty())
        return Status::InvalidArgument("surrogate-key: incomplete params");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.key_attrs, "key"));
      ETLOPT_RETURN_NOT_OK(
          CheckSubset(p.drop_attrs, p.key_attrs, "surrogate-key drop_attrs"));
      if (Contains(p.key_attrs, p.output)) {
        return Status::InvalidArgument(
            "surrogate-key: output collides with key attribute");
      }
      break;
    }
    case ActivityKind::kAggregation: {
      const auto& p = std::get<AggregationParams>(params);
      if (p.aggregates.empty())
        return Status::InvalidArgument("aggregation: no aggregates");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.group_by, "group-by"));
      std::vector<std::string> outs = p.group_by;
      for (const auto& a : p.aggregates) {
        if (a.arg.empty() || a.output.empty())
          return Status::InvalidArgument("aggregation: incomplete AggSpec");
        if (Contains(outs, a.output)) {
          return Status::InvalidArgument(
              "aggregation: duplicate output attribute '" + a.output + "'");
        }
        outs.push_back(a.output);
      }
      break;
    }
    case ActivityKind::kJoin: {
      const auto& p = std::get<JoinParams>(params);
      if (p.key_attrs.empty())
        return Status::InvalidArgument("join: empty key");
      ETLOPT_RETURN_NOT_OK(CheckNoDuplicates(p.key_attrs, "key"));
      break;
    }
    case ActivityKind::kUnion:
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      break;
  }
  return Activity(std::move(label), kind, std::move(params), selectivity);
}

std::vector<std::string> Activity::FunctionalityAttrs() const {
  switch (kind_) {
    case ActivityKind::kSelection:
      return params_as<SelectionParams>().predicate->ReferencedColumns();
    case ActivityKind::kNotNull:
      return {params_as<NotNullParams>().attr};
    case ActivityKind::kDomainCheck:
      return {params_as<DomainCheckParams>().attr};
    case ActivityKind::kPrimaryKeyCheck:
      return params_as<PrimaryKeyParams>().key_attrs;
    case ActivityKind::kProjection:
      return {};
    case ActivityKind::kFunction:
      return params_as<FunctionParams>().args;
    case ActivityKind::kSurrogateKey:
      return params_as<SurrogateKeyParams>().key_attrs;
    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      std::vector<std::string> out = p.group_by;
      for (const auto& a : p.aggregates) {
        if (!Contains(out, a.arg)) out.push_back(a.arg);
      }
      return out;
    }
    case ActivityKind::kJoin:
      return params_as<JoinParams>().key_attrs;
    case ActivityKind::kUnion:
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      return {};
  }
  return {};
}

std::vector<std::string> Activity::ValueChangedAttrs() const {
  switch (kind_) {
    case ActivityKind::kFunction: {
      const auto& p = params_as<FunctionParams>();
      if (p.entity_preserving) return {};
      return {p.output};
    }
    case ActivityKind::kSurrogateKey:
      return {params_as<SurrogateKeyParams>().output};
    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      std::vector<std::string> out;
      out.reserve(p.aggregates.size());
      for (const auto& a : p.aggregates) out.push_back(a.output);
      return out;
    }
    default:
      return {};
  }
}

std::vector<std::string> Activity::ProjectedOutAttrs() const {
  switch (kind_) {
    case ActivityKind::kProjection:
      return params_as<ProjectionParams>().drop_attrs;
    case ActivityKind::kFunction:
      return params_as<FunctionParams>().drop_args;
    case ActivityKind::kSurrogateKey:
      return params_as<SurrogateKeyParams>().drop_attrs;
    default:
      return {};
  }
}

std::vector<std::string> Activity::GeneratedAttrNames() const {
  switch (kind_) {
    case ActivityKind::kFunction: {
      const auto& p = params_as<FunctionParams>();
      if (Contains(p.args, p.output)) return {};  // in-place update
      return {p.output};
    }
    case ActivityKind::kSurrogateKey:
      return {params_as<SurrogateKeyParams>().output};
    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      std::vector<std::string> out;
      for (const auto& a : p.aggregates) {
        if (a.output != a.arg) out.push_back(a.output);
      }
      return out;
    }
    default:
      return {};
  }
}

StatusOr<Schema> Activity::ComputeOutputSchema(
    const std::vector<Schema>& inputs) const {
  if (static_cast<int>(inputs.size()) != input_arity()) {
    return Status::InvalidArgument(StrFormat(
        "activity '%s': expected %d input schemata, got %zu", label_.c_str(),
        input_arity(), inputs.size()));
  }
  auto check_present = [&](const std::vector<std::string>& attrs,
                           const Schema& s, const char* what) -> Status {
    for (const auto& a : attrs) {
      if (!s.Contains(a)) {
        return Status::FailedPrecondition(
            StrFormat("activity '%s': %s attribute '%s' missing from input %s",
                      label_.c_str(), what, a.c_str(), s.ToString().c_str()));
      }
    }
    return Status::OK();
  };
  switch (kind_) {
    case ActivityKind::kSelection:
    case ActivityKind::kNotNull:
    case ActivityKind::kDomainCheck:
    case ActivityKind::kPrimaryKeyCheck: {
      ETLOPT_RETURN_NOT_OK(
          check_present(FunctionalityAttrs(), inputs[0], "functionality"));
      return inputs[0];
    }
    case ActivityKind::kProjection: {
      const auto& p = params_as<ProjectionParams>();
      ETLOPT_RETURN_NOT_OK(check_present(p.drop_attrs, inputs[0], "drop"));
      Schema out = inputs[0].Minus(p.drop_attrs);
      if (out.empty()) {
        return Status::FailedPrecondition(
            StrFormat("activity '%s': projection drops all attributes",
                      label_.c_str()));
      }
      return out;
    }
    case ActivityKind::kFunction: {
      const auto& p = params_as<FunctionParams>();
      ETLOPT_RETURN_NOT_OK(check_present(p.args, inputs[0], "arg"));
      Schema out = inputs[0].Minus(p.drop_args);
      if (auto idx = out.IndexOf(p.output); idx.has_value()) {
        // In-place update: only legal when the output is one of the args.
        // A collision with an unrelated input attribute must be rejected,
        // otherwise a transition could silently change semantics.
        if (!Contains(p.args, p.output)) {
          return Status::FailedPrecondition(StrFormat(
              "activity '%s': output '%s' collides with an input attribute",
              label_.c_str(), p.output.c_str()));
        }
        std::vector<Attribute> attrs = out.attributes();
        attrs[*idx].type = p.output_type;
        return Schema::Make(std::move(attrs));
      }
      ETLOPT_RETURN_NOT_OK(out.Append({p.output, p.output_type}));
      return out;
    }
    case ActivityKind::kSurrogateKey: {
      const auto& p = params_as<SurrogateKeyParams>();
      ETLOPT_RETURN_NOT_OK(check_present(p.key_attrs, inputs[0], "key"));
      if (inputs[0].Contains(p.output)) {
        return Status::FailedPrecondition(
            StrFormat("activity '%s': surrogate output '%s' already present",
                      label_.c_str(), p.output.c_str()));
      }
      Schema out = inputs[0].Minus(p.drop_attrs);
      ETLOPT_RETURN_NOT_OK(out.Append({p.output, DataType::kInt64}));
      return out;
    }
    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      ETLOPT_RETURN_NOT_OK(check_present(p.group_by, inputs[0], "group-by"));
      Schema out;
      for (const auto& g : p.group_by) {
        auto idx = inputs[0].IndexOf(g);
        ETLOPT_RETURN_NOT_OK(out.Append(inputs[0].attribute(*idx)));
      }
      for (const auto& a : p.aggregates) {
        auto idx = inputs[0].IndexOf(a.arg);
        if (!idx.has_value()) {
          return Status::FailedPrecondition(
              StrFormat("activity '%s': aggregate arg '%s' missing",
                        label_.c_str(), a.arg.c_str()));
        }
        DataType out_type;
        switch (a.fn) {
          case AggFn::kCount:
            out_type = DataType::kInt64;
            break;
          case AggFn::kMin:
          case AggFn::kMax:
            out_type = inputs[0].attribute(*idx).type;
            break;
          case AggFn::kSum:
          case AggFn::kAvg:
            out_type = DataType::kDouble;
            break;
        }
        ETLOPT_RETURN_NOT_OK(out.Append({a.output, out_type}));
      }
      return out;
    }
    case ActivityKind::kUnion:
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection: {
      if (!inputs[0].EquivalentTo(inputs[1])) {
        return Status::FailedPrecondition(StrFormat(
            "activity '%s': %s requires equivalent input schemata; got %s "
            "vs %s",
            label_.c_str(),
            std::string(ActivityKindToString(kind_)).c_str(),
            inputs[0].ToString().c_str(), inputs[1].ToString().c_str()));
      }
      return inputs[0];
    }
    case ActivityKind::kJoin: {
      const auto& p = params_as<JoinParams>();
      ETLOPT_RETURN_NOT_OK(check_present(p.key_attrs, inputs[0], "key"));
      ETLOPT_RETURN_NOT_OK(check_present(p.key_attrs, inputs[1], "key"));
      Schema out = inputs[0];
      for (const auto& a : inputs[1].attributes()) {
        if (Contains(p.key_attrs, a.name)) continue;
        if (out.Contains(a.name)) {
          return Status::FailedPrecondition(StrFormat(
              "activity '%s': join would duplicate non-key attribute '%s'",
              label_.c_str(), a.name.c_str()));
        }
        ETLOPT_RETURN_NOT_OK(out.Append(a));
      }
      return out;
    }
  }
  return Status::Internal("unhandled activity kind");
}

std::string Activity::SemanticsString() const {
  std::string head(ActivityKindToString(kind_));
  switch (kind_) {
    case ActivityKind::kSelection:
      return head + "[" + params_as<SelectionParams>().predicate->ToString() +
             "]";
    case ActivityKind::kNotNull:
      return head + "[" + params_as<NotNullParams>().attr + "]";
    case ActivityKind::kDomainCheck: {
      const auto& p = params_as<DomainCheckParams>();
      return head + "[" + p.attr + "," + DoubleToString(p.lo) + "," +
             DoubleToString(p.hi) + "]";
    }
    case ActivityKind::kPrimaryKeyCheck:
      return head + "[" + Join(params_as<PrimaryKeyParams>().key_attrs, ",") +
             "]";
    case ActivityKind::kProjection:
      return head + "-[" + Join(params_as<ProjectionParams>().drop_attrs, ",") +
             "]";
    case ActivityKind::kFunction: {
      const auto& p = params_as<FunctionParams>();
      std::string s = head;
      if (p.entity_preserving) s += "~";
      s += "[" + p.function + "(" + Join(p.args, ",") + ")->" + p.output;
      if (!p.drop_args.empty()) s += ";-" + Join(p.drop_args, ",");
      s += "]";
      return s;
    }
    case ActivityKind::kSurrogateKey: {
      const auto& p = params_as<SurrogateKeyParams>();
      std::string s = head + "[" + Join(p.key_attrs, ",") + "->" + p.output +
                      ";lut=" + p.lookup_name;
      if (!p.drop_attrs.empty()) s += ";-" + Join(p.drop_attrs, ",");
      s += "]";
      return s;
    }
    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      std::vector<std::string> aggs;
      aggs.reserve(p.aggregates.size());
      for (const auto& a : p.aggregates) {
        aggs.push_back(std::string(AggFnToString(a.fn)) + "(" + a.arg + ")->" +
                       a.output);
      }
      return head + "[" + Join(p.group_by, ",") + "|" + Join(aggs, ",") + "]";
    }
    case ActivityKind::kJoin:
      return head + "[" + Join(params_as<JoinParams>().key_attrs, ",") + "]";
    case ActivityKind::kUnion:
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      return head;
  }
  return head;
}

}  // namespace etlopt
