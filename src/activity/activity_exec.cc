// Execution semantics of the activity templates: the row kernels every
// engine shares. Each kernel binds names to positions (activity/binding.h)
// once per call, before its row loop.

#include <map>

#include "activity/activity.h"
#include "activity/agg_accumulator.h"
#include "activity/binding.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

StatusOr<std::vector<Record>> Activity::Execute(
    const std::vector<Schema>& input_schemas,
    const std::vector<std::vector<Record>>& inputs,
    const ExecutionContext& ctx) const {
  if (input_schemas.size() != inputs.size() ||
      static_cast<int>(inputs.size()) != input_arity()) {
    return Status::InvalidArgument(
        StrFormat("activity '%s': bad execute arity", label_.c_str()));
  }
  // Validate schema compatibility up front; Execute relies on it.
  ETLOPT_ASSIGN_OR_RETURN(Schema out_schema, ComputeOutputSchema(input_schemas));
  const Schema& in = input_schemas[0];
  const std::vector<Record>& rows = inputs[0];
  std::vector<Record> out;

  switch (kind_) {
    case ActivityKind::kSelection: {
      const ExprPtr predicate =
          params_as<SelectionParams>().predicate->Bind(in);
      for (const auto& r : rows) {
        ETLOPT_ASSIGN_OR_RETURN(bool keep,
                                EvaluatePredicate(*predicate, r, in));
        if (keep) out.push_back(r);
      }
      return out;
    }

    case ActivityKind::kNotNull: {
      const auto& p = params_as<NotNullParams>();
      size_t idx = *in.IndexOf(p.attr);
      for (const auto& r : rows) {
        if (!r.value(idx).is_null()) out.push_back(r);
      }
      return out;
    }

    case ActivityKind::kDomainCheck: {
      const auto& p = params_as<DomainCheckParams>();
      size_t idx = *in.IndexOf(p.attr);
      for (const auto& r : rows) {
        const Value& v = r.value(idx);
        if (v.is_null()) continue;
        if (v.type() != DataType::kInt64 && v.type() != DataType::kDouble) {
          return Status::InvalidArgument(
              StrFormat("activity '%s': domain check over non-numeric '%s'",
                        label_.c_str(), p.attr.c_str()));
        }
        double d = v.AsDouble();
        if (d >= p.lo && d <= p.hi) out.push_back(r);
      }
      return out;
    }

    case ActivityKind::kPrimaryKeyCheck: {
      ETLOPT_ASSIGN_OR_RETURN(
          std::vector<size_t> key_idx,
          AttrIndices(in, params_as<PrimaryKeyParams>().key_attrs));
      std::map<std::vector<Value>, bool> seen;
      for (const auto& r : rows) {
        if (seen.emplace(ExtractKey(r, key_idx), true).second) {
          out.push_back(r);
        }
      }
      return out;
    }

    case ActivityKind::kProjection: {
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                              ColumnMapping(in, out_schema));
      out.reserve(rows.size());
      for (const auto& r : rows) out.push_back(Realign(r, mapping));
      return out;
    }

    case ActivityKind::kFunction: {
      // An unregistered function fails only once a row flows.
      if (rows.empty()) return out;
      const auto& p = params_as<FunctionParams>();
      ETLOPT_ASSIGN_OR_RETURN(BoundFunction f,
                              BindFunction(p, in, out_schema));
      out.reserve(rows.size());
      std::vector<Value> args(f.args.size());
      for (const auto& r : rows) {
        for (size_t a = 0; a < f.args.size(); ++a) {
          if (f.args[a] >= r.size()) {
            return Status::Internal("record narrower than schema at " +
                                    p.args[a]);
          }
          args[a] = r.value(f.args[a]);
        }
        ETLOPT_ASSIGN_OR_RETURN(Value v, f.fn(args));
        out.push_back(f.layout.Assemble(r, std::move(v)));
      }
      return out;
    }

    case ActivityKind::kSurrogateKey: {
      ETLOPT_ASSIGN_OR_RETURN(BoundSurrogateKey sk,
                              BindSurrogateKey(*this, in, out_schema, ctx));
      out.reserve(rows.size());
      std::vector<Value> key(sk.keys.size());
      for (const auto& r : rows) {
        for (size_t k = 0; k < sk.keys.size(); ++k) {
          key[k] = r.value(sk.keys[k]);
        }
        auto hit = sk.table->find(key);
        if (hit == sk.table->end()) return SurrogateKeyMiss(label_, key);
        out.push_back(sk.layout.Assemble(r, hit->second));
      }
      return out;
    }

    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      // std::map keyed by group values gives deterministic output order,
      // making executed outputs comparable across equivalent workflows.
      std::map<std::vector<Value>, std::vector<AggAcc>> groups;
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                              AttrIndices(in, p.group_by));
      std::vector<size_t> arg_idx;
      arg_idx.reserve(p.aggregates.size());
      for (const auto& a : p.aggregates) arg_idx.push_back(*in.IndexOf(a.arg));
      for (const auto& r : rows) {
        auto [it, inserted] = groups.try_emplace(
            ExtractKey(r, group_idx), std::vector<AggAcc>(p.aggregates.size()));
        (void)inserted;
        for (size_t i = 0; i < p.aggregates.size(); ++i) {
          it->second[i].Add(r.value(arg_idx[i]));
        }
      }
      for (const auto& [key, accs] : groups) {
        Record nr;
        for (const auto& k : key) nr.Append(k);
        for (size_t i = 0; i < p.aggregates.size(); ++i) {
          nr.Append(accs[i].Result(p.aggregates[i].fn));
        }
        out.push_back(std::move(nr));
      }
      return out;
    }

    case ActivityKind::kUnion: {
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_map,
                              ColumnMapping(input_schemas[1], out_schema));
      out.reserve(rows.size() + inputs[1].size());
      out.insert(out.end(), rows.begin(), rows.end());
      for (const auto& r : inputs[1]) out.push_back(Realign(r, right_map));
      return out;
    }

    case ActivityKind::kDifference:
    case ActivityKind::kIntersection: {
      // Bag semantics over name-aligned records.
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_map,
                              ColumnMapping(input_schemas[1], out_schema));
      std::map<Record, int64_t> right_counts;
      for (const auto& r : inputs[1]) ++right_counts[Realign(r, right_map)];
      bool keep_matched = kind_ == ActivityKind::kIntersection;
      for (const auto& r : rows) {
        auto it = right_counts.find(r);
        bool matched = it != right_counts.end() && it->second > 0;
        if (matched) --it->second;
        if (matched == keep_matched) out.push_back(r);
      }
      return out;
    }

    case ActivityKind::kJoin: {
      const auto& p = params_as<JoinParams>();
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_key,
                              AttrIndices(in, p.key_attrs));
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_key,
                              AttrIndices(input_schemas[1], p.key_attrs));
      const std::vector<size_t> right_pass =
          JoinPassthrough(input_schemas[1], p.key_attrs);
      std::map<std::vector<Value>, std::vector<const Record*>> right_index;
      for (const auto& r : inputs[1]) {
        std::vector<Value> key = ExtractKey(r, right_key);
        if (HasNull(key)) continue;  // NULL keys never join (SQL semantics)
        right_index[std::move(key)].push_back(&r);
      }
      for (const auto& l : rows) {
        std::vector<Value> key = ExtractKey(l, left_key);
        if (HasNull(key)) continue;
        auto hit = right_index.find(key);
        if (hit == right_index.end()) continue;
        for (const Record* r : hit->second) {
          Record nr = l;
          for (size_t c : right_pass) nr.Append(r->value(c));
          out.push_back(std::move(nr));
        }
      }
      return out;
    }
  }
  return Status::Internal("unhandled activity kind in Execute");
}

}  // namespace etlopt
