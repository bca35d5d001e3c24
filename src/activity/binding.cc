#include "activity/binding.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

StatusOr<DerivedLayout> DeriveLayout(const Schema& in, const Schema& out,
                                     const std::string& computed_attr,
                                     const char* what) {
  DerivedLayout layout;
  layout.computed = *out.IndexOf(computed_attr);
  layout.source.assign(out.size(), 0);
  size_t next = 0;  // passthrough sources must ascend (see Assemble)
  for (size_t i = 0; i < out.size(); ++i) {
    if (i == layout.computed) continue;
    auto src = in.IndexOf(out.attribute(i).name);
    if (!src.has_value()) {
      return Status::Internal(StrFormat("%s: missing passthrough attr %s",
                                        what, out.attribute(i).name.c_str()));
    }
    if (*src < next) {
      return Status::Internal(StrFormat("%s: passthrough attr %s out of order",
                                        what, out.attribute(i).name.c_str()));
    }
    layout.source[i] = *src;
    next = *src + 1;
  }
  return layout;
}

}  // namespace

StatusOr<std::vector<size_t>> AttrIndices(
    const Schema& schema, const std::vector<std::string>& attrs) {
  std::vector<size_t> idx;
  idx.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto i = schema.IndexOf(a);
    if (!i.has_value()) return Status::Internal("missing attribute " + a);
    idx.push_back(*i);
  }
  return idx;
}

std::vector<Value> ExtractKey(const Record& row,
                              const std::vector<size_t>& idx) {
  std::vector<Value> key;
  key.reserve(idx.size());
  for (size_t i : idx) key.push_back(row.value(i));
  return key;
}

bool HasNull(const std::vector<Value>& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return v.is_null(); });
}

std::vector<size_t> JoinPassthrough(const Schema& right,
                                    const std::vector<std::string>& keys) {
  std::vector<size_t> pass;
  for (size_t i = 0; i < right.size(); ++i) {
    if (std::find(keys.begin(), keys.end(), right.attribute(i).name) ==
        keys.end()) {
      pass.push_back(i);
    }
  }
  return pass;
}

StatusOr<std::vector<size_t>> ColumnMapping(const Schema& from,
                                            const Schema& to) {
  std::vector<size_t> mapping;
  mapping.reserve(to.size());
  for (const auto& a : to.attributes()) {
    auto idx = from.IndexOf(a.name);
    if (!idx.has_value()) {
      return Status::Internal("realign: missing attribute " + a.name);
    }
    mapping.push_back(*idx);
  }
  return mapping;
}

Record Realign(Record row, const std::vector<size_t>& mapping) {
  std::vector<Value>& cells = row.mutable_values();
  bool in_place = true;
  for (size_t j = 0; j < mapping.size(); ++j) in_place &= mapping[j] >= j;
  if (!in_place) {
    std::vector<Value> values;
    values.reserve(mapping.size());
    for (size_t src : mapping) values.push_back(std::move(cells[src]));
    return Record(std::move(values));
  }
  // Writing cell j reads cell mapping[j] >= j, which no earlier write
  // touched: ColumnMapping never names a source twice.
  for (size_t j = 0; j < mapping.size(); ++j) {
    if (mapping[j] != j) cells[j] = std::move(cells[mapping[j]]);
  }
  cells.resize(mapping.size());
  return row;
}

Record DerivedLayout::Assemble(Record row, Value value) const {
  std::vector<Value>& cells = row.mutable_values();
  // The k-th passthrough cell comes from source >= k (sources ascend), so
  // one left-to-right pass never overwrites a cell it has yet to read.
  size_t kept = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    if (i == computed) continue;
    if (source[i] != kept) cells[kept] = std::move(cells[source[i]]);
    ++kept;
  }
  cells.resize(kept);
  cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(computed),
               std::move(value));
  return row;
}

StatusOr<BoundFunction> BindFunction(const FunctionParams& p, const Schema& in,
                                     const Schema& out) {
  BoundFunction f;
  f.fn = FindScalarFunction(p.function);
  if (f.fn == nullptr) {
    return Status::NotFound("unregistered scalar function: " + p.function);
  }
  ETLOPT_ASSIGN_OR_RETURN(f.args, AttrIndices(in, p.args));
  ETLOPT_ASSIGN_OR_RETURN(f.layout,
                          DeriveLayout(in, out, p.output, "function"));
  return f;
}

StatusOr<BoundSurrogateKey> BindSurrogateKey(const Activity& activity,
                                             const Schema& in,
                                             const Schema& out,
                                             const ExecutionContext& ctx) {
  const auto& p = activity.params_as<SurrogateKeyParams>();
  auto lut = ctx.lookups.find(p.lookup_name);
  if (lut == ctx.lookups.end()) {
    return Status::NotFound(
        StrFormat("activity '%s': lookup table '%s' not bound",
                  activity.label().c_str(), p.lookup_name.c_str()));
  }
  BoundSurrogateKey sk;
  sk.index = &lut->second.Index();
  ETLOPT_ASSIGN_OR_RETURN(sk.keys, AttrIndices(in, p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(sk.layout,
                          DeriveLayout(in, out, p.output, "surrogate key"));
  return sk;
}

Status SurrogateKeyMiss(const std::string& label,
                        const std::vector<Value>& key) {
  std::vector<std::string> parts;
  parts.reserve(key.size());
  for (const auto& v : key) parts.push_back(v.ToString());
  return Status::NotFound(
      StrFormat("activity '%s': surrogate key miss for (%s)", label.c_str(),
                Join(parts, ",").c_str()));
}

}  // namespace etlopt
