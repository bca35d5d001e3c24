// ActivityChain: one graph node's activities.
//
// A node normally holds a single activity, but the paper's Merge
// transition packages a pair of adjacent activities into one unit (and
// Split unpackages it). Representing the node payload as a short chain of
// activities makes MER/SPL list operations and lets every composite
// property (schemata, semantics, selectivity, execution) fold over the
// members.

#ifndef ETLOPT_GRAPH_ACTIVITY_CHAIN_H_
#define ETLOPT_GRAPH_ACTIVITY_CHAIN_H_

#include <string>
#include <vector>

#include "activity/activity.h"

namespace etlopt {

/// A non-empty sequence of activities executed back to back within one
/// workflow node. Invariants: a binary activity can only appear as the
/// first member; all later members are unary (a chain has one output and
/// as many inputs as its first member).
class ActivityChain {
 public:
  /// A chain member: the activity plus its execution-priority label
  /// (assigned from the initial workflow's topological order, paper §4.1,
  /// and carried unchanged for the activity's whole lifespan).
  struct Member {
    Activity activity;
    std::string plabel;
  };

  explicit ActivityChain(Activity activity, std::string plabel = "");

  /// Concatenates `head` then `tail` (the Merge transition). Fails if
  /// `tail` starts with a binary activity.
  static StatusOr<ActivityChain> Concat(const ActivityChain& head,
                                        const ActivityChain& tail);

  /// Splits into [0, at) and [at, size) (the Split transition).
  /// Requires 0 < at < size().
  StatusOr<std::pair<ActivityChain, ActivityChain>> SplitAt(size_t at) const;

  const std::vector<Member>& members() const { return members_; }
  size_t size() const { return members_.size(); }
  const Activity& front() const { return members_.front().activity; }
  const Activity& back() const { return members_.back().activity; }

  bool is_unary() const { return front().is_unary(); }
  bool is_binary() const { return front().is_binary(); }
  int input_arity() const { return front().input_arity(); }

  /// "check_nn+to_euro" — member labels joined.
  std::string label() const;

  /// "3+4" — member priority labels joined; the node's signature atom.
  std::string PriorityLabel() const;

  void set_plabel(size_t member, std::string plabel);

  /// Replaces one member's activity (e.g. with recalibrated selectivity).
  /// The member keeps its priority label.
  void ReplaceMemberActivity(size_t member, Activity activity);

  /// Attributes read from the chain's external input (reads satisfied by
  /// an upstream member's generated attributes are internal and excluded).
  std::vector<std::string> FunctionalityAttrs() const;

  /// Union of members' value-changed attributes.
  std::vector<std::string> ValueChangedAttrs() const;

  /// Composite selectivity (product of members').
  double selectivity() const;

  /// Folds ComputeOutputSchema over the members.
  StatusOr<Schema> ComputeOutputSchema(const std::vector<Schema>& inputs) const;

  /// Members' semantics strings joined with '+': the composite algebraic
  /// form used for the homologous test.
  std::string SemanticsString() const;

  /// FNV-1a hash of SemanticsString(), computed once at construction.
  /// Equal chains have equal hashes; used by the semi-incremental costing
  /// to detect untouched nodes cheaply.
  size_t semantics_hash() const { return semantics_hash_; }

  /// One post-condition predicate per member (paper §3.4).
  std::vector<std::string> PredicateStrings() const;

  /// Runs all members in sequence. Takes ownership of `inputs`, like
  /// Activity::Execute, and hands each member's output to the next member
  /// by move.
  StatusOr<std::vector<Record>> Execute(
      const std::vector<Schema>& input_schemas,
      std::vector<std::vector<Record>> inputs,
      const ExecutionContext& ctx) const;

 private:
  explicit ActivityChain(std::vector<Member> members);

  std::vector<Member> members_;
  size_t semantics_hash_ = 0;
};

}  // namespace etlopt

#endif  // ETLOPT_GRAPH_ACTIVITY_CHAIN_H_
