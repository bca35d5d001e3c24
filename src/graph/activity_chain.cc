#include "graph/activity_chain.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

void AddUnique(std::vector<std::string>* v, const std::string& s) {
  if (!Contains(*v, s)) v->push_back(s);
}


size_t HashString(const std::string& s) {
  size_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

}  // namespace

ActivityChain::ActivityChain(Activity activity, std::string plabel) {
  members_.push_back(Member{std::move(activity), std::move(plabel)});
  semantics_hash_ = HashString(SemanticsString());
}

ActivityChain::ActivityChain(std::vector<Member> members)
    : members_(std::move(members)) {
  semantics_hash_ = HashString(SemanticsString());
}

StatusOr<ActivityChain> ActivityChain::Concat(const ActivityChain& head,
                                              const ActivityChain& tail) {
  if (tail.front().is_binary()) {
    return Status::InvalidArgument(
        "merge: a binary activity can only lead a chain");
  }
  std::vector<Member> members = head.members_;
  members.insert(members.end(), tail.members_.begin(), tail.members_.end());
  return ActivityChain(std::move(members));
}

StatusOr<std::pair<ActivityChain, ActivityChain>> ActivityChain::SplitAt(
    size_t at) const {
  if (at == 0 || at >= members_.size()) {
    return Status::InvalidArgument(
        StrFormat("split: position %zu out of range (size %zu)", at,
                  members_.size()));
  }
  std::vector<Member> head(members_.begin(), members_.begin() + at);
  std::vector<Member> tail(members_.begin() + at, members_.end());
  return std::make_pair(ActivityChain(std::move(head)),
                        ActivityChain(std::move(tail)));
}

std::string ActivityChain::label() const {
  std::vector<std::string> parts;
  parts.reserve(members_.size());
  for (const auto& m : members_) parts.push_back(m.activity.label());
  return Join(parts, "+");
}

std::string ActivityChain::PriorityLabel() const {
  std::vector<std::string> parts;
  parts.reserve(members_.size());
  for (const auto& m : members_) parts.push_back(m.plabel);
  return Join(parts, "+");
}

void ActivityChain::set_plabel(size_t member, std::string plabel) {
  ETLOPT_CHECK(member < members_.size());
  members_[member].plabel = std::move(plabel);
}

void ActivityChain::ReplaceMemberActivity(size_t member, Activity activity) {
  ETLOPT_CHECK(member < members_.size());
  members_[member].activity = std::move(activity);
  semantics_hash_ = HashString(SemanticsString());
}

std::vector<std::string> ActivityChain::FunctionalityAttrs() const {
  std::vector<std::string> external;
  std::vector<std::string> produced_inside;
  for (const auto& m : members_) {
    for (const auto& f : m.activity.FunctionalityAttrs()) {
      if (!Contains(produced_inside, f)) AddUnique(&external, f);
    }
    for (const auto& g : m.activity.GeneratedAttrNames()) {
      AddUnique(&produced_inside, g);
    }
  }
  return external;
}

std::vector<std::string> ActivityChain::ValueChangedAttrs() const {
  std::vector<std::string> out;
  for (const auto& m : members_) {
    for (const auto& v : m.activity.ValueChangedAttrs()) AddUnique(&out, v);
  }
  return out;
}

double ActivityChain::selectivity() const {
  double s = 1.0;
  for (const auto& m : members_) s *= m.activity.selectivity();
  return s;
}

StatusOr<Schema> ActivityChain::ComputeOutputSchema(
    const std::vector<Schema>& inputs) const {
  ETLOPT_ASSIGN_OR_RETURN(Schema cur,
                          front().ComputeOutputSchema(inputs));
  for (size_t i = 1; i < members_.size(); ++i) {
    ETLOPT_ASSIGN_OR_RETURN(cur, members_[i].activity.ComputeOutputSchema(
                                     std::vector<Schema>{cur}));
  }
  return cur;
}

std::string ActivityChain::SemanticsString() const {
  std::vector<std::string> parts;
  parts.reserve(members_.size());
  for (const auto& m : members_) parts.push_back(m.activity.SemanticsString());
  return Join(parts, "+");
}

std::vector<std::string> ActivityChain::PredicateStrings() const {
  std::vector<std::string> parts;
  parts.reserve(members_.size());
  for (const auto& m : members_) parts.push_back(m.activity.SemanticsString());
  return parts;
}

StatusOr<std::vector<Record>> ActivityChain::Execute(
    const std::vector<Schema>& input_schemas,
    std::vector<std::vector<Record>> inputs,
    const ExecutionContext& ctx) const {
  ETLOPT_ASSIGN_OR_RETURN(
      std::vector<Record> rows,
      front().Execute(input_schemas, std::move(inputs), ctx));
  ETLOPT_ASSIGN_OR_RETURN(Schema cur_schema,
                          front().ComputeOutputSchema(input_schemas));
  for (size_t i = 1; i < members_.size(); ++i) {
    const Activity& a = members_[i].activity;
    std::vector<Schema> in_s{cur_schema};
    // Not a braced list: that would copy the rows out of it.
    std::vector<std::vector<Record>> in_rows;
    in_rows.push_back(std::move(rows));
    ETLOPT_ASSIGN_OR_RETURN(rows, a.Execute(in_s, std::move(in_rows), ctx));
    ETLOPT_ASSIGN_OR_RETURN(cur_schema, a.ComputeOutputSchema(in_s));
  }
  return rows;
}

}  // namespace etlopt
