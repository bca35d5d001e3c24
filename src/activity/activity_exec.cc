// Execution semantics of the activity templates: the row kernels every
// engine shares. Each kernel binds names to positions (activity/binding.h)
// once per call, before its row loop, and owns the flows it is handed:
// filters compact the input in place, 1:1 kernels edit each row in place,
// and no kernel copies a row it can move.

#include <map>

#include "activity/activity.h"
#include "activity/agg_accumulator.h"
#include "activity/binding.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Keeps the rows `keep` accepts, in order, by compacting `rows` in place:
// a kept row is moved, never copied. Fails at the first row `keep` fails.
template <typename Keep>
StatusOr<std::vector<Record>> KeepRows(std::vector<Record> rows,
                                       const Keep& keep) {
  size_t kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    ETLOPT_ASSIGN_OR_RETURN(bool k, keep(rows[i]));
    if (!k) continue;
    if (kept != i) rows[kept] = std::move(rows[i]);
    ++kept;
  }
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(kept), rows.end());
  return rows;
}

}  // namespace

StatusOr<std::vector<Record>> Activity::Execute(
    const std::vector<Schema>& input_schemas,
    std::vector<std::vector<Record>> inputs,
    const ExecutionContext& ctx) const {
  if (input_schemas.size() != inputs.size() ||
      static_cast<int>(inputs.size()) != input_arity()) {
    return Status::InvalidArgument(
        StrFormat("activity '%s': bad execute arity", label_.c_str()));
  }
  // Validate schema compatibility up front; Execute relies on it.
  ETLOPT_ASSIGN_OR_RETURN(Schema out_schema, ComputeOutputSchema(input_schemas));
  const Schema& in = input_schemas[0];
  std::vector<Record>& rows = inputs[0];

  switch (kind_) {
    case ActivityKind::kSelection: {
      const ExprPtr predicate =
          params_as<SelectionParams>().predicate->Bind(in);
      return KeepRows(std::move(rows), [&](const Record& r) {
        return EvaluatePredicate(*predicate, r, in);
      });
    }

    case ActivityKind::kNotNull: {
      const auto& p = params_as<NotNullParams>();
      size_t idx = *in.IndexOf(p.attr);
      return KeepRows(std::move(rows),
                      [idx](const Record& r) -> StatusOr<bool> {
                        return !r.value(idx).is_null();
                      });
    }

    case ActivityKind::kDomainCheck: {
      const auto& p = params_as<DomainCheckParams>();
      size_t idx = *in.IndexOf(p.attr);
      return KeepRows(std::move(rows), [&](const Record& r) -> StatusOr<bool> {
        const Value& v = r.value(idx);
        if (v.is_null()) return false;
        if (v.type() != DataType::kInt64 && v.type() != DataType::kDouble) {
          return Status::InvalidArgument(
              StrFormat("activity '%s': domain check over non-numeric '%s'",
                        label_.c_str(), p.attr.c_str()));
        }
        double d = v.AsDouble();
        return d >= p.lo && d <= p.hi;
      });
    }

    case ActivityKind::kPrimaryKeyCheck: {
      ETLOPT_ASSIGN_OR_RETURN(
          std::vector<size_t> key_idx,
          AttrIndices(in, params_as<PrimaryKeyParams>().key_attrs));
      KeyMap<bool> seen;
      return KeepRows(std::move(rows), [&](const Record& r) -> StatusOr<bool> {
        return seen.emplace(ExtractKey(r, key_idx), true).second;
      });
    }

    case ActivityKind::kProjection: {
      // The kept attributes keep their input order, so each row drops
      // its cells in place.
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                              ColumnMapping(in, out_schema));
      for (auto& r : rows) r = Realign(std::move(r), mapping);
      return std::move(rows);
    }

    case ActivityKind::kFunction: {
      // An unregistered function fails only once a row flows.
      if (rows.empty()) return std::move(rows);
      const auto& p = params_as<FunctionParams>();
      ETLOPT_ASSIGN_OR_RETURN(BoundFunction f,
                              BindFunction(p, in, out_schema));
      std::vector<Value> args(f.args.size());
      for (auto& r : rows) {
        for (size_t a = 0; a < f.args.size(); ++a) {
          if (f.args[a] >= r.size()) {
            return Status::Internal("record narrower than schema at " +
                                    p.args[a]);
          }
          args[a] = r.value(f.args[a]);
        }
        ETLOPT_ASSIGN_OR_RETURN(Value v, f.fn(args));
        r = f.layout.Assemble(std::move(r), std::move(v));
      }
      return std::move(rows);
    }

    case ActivityKind::kSurrogateKey: {
      ETLOPT_ASSIGN_OR_RETURN(BoundSurrogateKey sk,
                              BindSurrogateKey(*this, in, out_schema, ctx));
      for (auto& r : rows) {
        const Value* hit = sk.index->Find(
            sk.keys.size(),
            [&](size_t k) { return r.value(sk.keys[k]).Hash(); },
            [&](size_t k, const Value& v) { return r.value(sk.keys[k]) == v; });
        if (hit == nullptr) {
          return SurrogateKeyMiss(label_, ExtractKey(r, sk.keys));
        }
        r = sk.layout.Assemble(std::move(r), *hit);
      }
      return std::move(rows);
    }

    case ActivityKind::kAggregation: {
      const auto& p = params_as<AggregationParams>();
      // A map keyed by group values gives deterministic output order,
      // making executed outputs comparable across equivalent workflows.
      KeyMap<std::vector<AggAcc>> groups;
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
      std::vector<Record> out;
      out.reserve(groups.size());
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
      std::vector<Record> out = std::move(rows);
      out.reserve(out.size() + inputs[1].size());
      for (auto& r : inputs[1]) {
        out.push_back(Realign(std::move(r), right_map));
      }
      return out;
    }

    case ActivityKind::kDifference:
    case ActivityKind::kIntersection: {
      // Bag semantics over name-aligned records.
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_map,
                              ColumnMapping(input_schemas[1], out_schema));
      std::map<Record, int64_t, KeyOrder> right_counts;
      for (auto& r : inputs[1]) {
        ++right_counts[Realign(std::move(r), right_map)];
      }
      const bool keep_matched = kind_ == ActivityKind::kIntersection;
      return KeepRows(std::move(rows), [&](const Record& r) -> StatusOr<bool> {
        auto it = right_counts.find(r);
        bool matched = it != right_counts.end() && it->second > 0;
        if (matched) --it->second;
        return matched == keep_matched;
      });
    }

    case ActivityKind::kJoin: {
      const auto& p = params_as<JoinParams>();
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_key,
                              AttrIndices(in, p.key_attrs));
      ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_key,
                              AttrIndices(input_schemas[1], p.key_attrs));
      const std::vector<size_t> right_pass =
          JoinPassthrough(input_schemas[1], p.key_attrs);
      KeyMap<std::vector<const Record*>> right_index;
      for (const auto& r : inputs[1]) {
        std::vector<Value> key = ExtractKey(r, right_key);
        if (HasNull(key)) continue;  // NULL keys never join (SQL semantics)
        right_index[std::move(key)].push_back(&r);
      }
      std::vector<Record> out;
      for (auto& l : rows) {
        std::vector<Value> key = ExtractKey(l, left_key);
        if (HasNull(key)) continue;
        auto hit = right_index.find(key);
        if (hit == right_index.end()) continue;
        // Every match but the last copies the left row; the last takes it.
        const std::vector<const Record*>& matches = hit->second;
        for (size_t m = 0; m < matches.size(); ++m) {
          Record nr = m + 1 < matches.size() ? Record(l) : std::move(l);
          for (size_t c : right_pass) nr.Append(matches[m]->value(c));
          out.push_back(std::move(nr));
        }
      }
      return out;
    }
  }
  return Status::Internal("unhandled activity kind in Execute");
}

}  // namespace etlopt
