#include "stream/stream_executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "activity/activity.h"
#include "activity/agg_accumulator.h"
#include "activity/binding.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "engine/node_driver.h"
#include "engine/recovery.h"
#include "fault/fault_injector.h"
#include "records/record_io.h"
#include "stream/stream_checkpoint.h"

namespace etlopt {

namespace {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

// ---- incremental execution plan -----------------------------------------

/// How one chain member processes the stream flowing through its node.
enum class MemberMode {
  /// No state: run the activity on its inputs — the batch delta, or the
  /// full rows once an earlier chain member turned the stream refresh.
  kStateless,
  /// PrimaryKeyCheck: persistent seen-key set, emits first occurrences.
  kPkDelta,
  /// Join: persistent input histories + key indexes, emits new pairs.
  kJoinDelta,
  /// Aggregation: persistent per-group accumulators (the stream turns
  /// into refresh here). On a keyed node it emits a keyed changelog:
  /// only the groups this batch touched, in sorted group-key order, as
  /// upserts (all groups on the first batch after a resume). Elsewhere
  /// it emits the full sorted group table.
  kAggRefresh,
  /// Difference/Intersection: persistent bag counts per side, emits the
  /// full current result (refresh).
  kBagRefresh,
};

struct MemberPlan {
  MemberMode mode = MemberMode::kStateless;
  std::vector<Schema> input_schemas;
  Schema output_schema;
  // Key-column indexes, resolved once: PK keys / join-left keys.
  std::vector<size_t> key_idx_left;
  // Join-right keys.
  std::vector<size_t> key_idx_right;
  // Join: right-schema indexes of the non-key attributes carried into
  // the output, in right-schema order (mirrors the batch join).
  std::vector<size_t> right_carry_idx;
  // Aggregation.
  std::vector<size_t> group_idx;
  std::vector<size_t> arg_idx;
  std::vector<AggFn> agg_fns;
  // Bag ops: right-schema index for each output attribute (realign map).
  std::vector<size_t> right_realign_idx;
  // Bag ops: keep matched rows (intersection) or unmatched (difference).
  bool keep_matched = false;
};

struct NodePlan {
  /// Target recordset: its batch rows fold into the run's result.
  bool is_target = false;
  /// Some input is refresh: rerun the whole chain on full inputs.
  bool recompute = false;
  /// This node emits its full output each batch (vs. a delta).
  bool refresh_output = false;
  /// A refresh node that emits a keyed changelog instead of its full
  /// output: an aggregation over a delta input followed by row-wise
  /// members only (the origin), or a row-wise chain or a recordset fed
  /// by a keyed node. Every consumer of a keyed node is keyed or a
  /// target; KeyedNodes() has the rule.
  bool keyed = false;
  /// Keyed nodes other than the origin: the activity node whose
  /// changelog keys this node's input rows (through recordsets).
  std::optional<NodeId> keyed_from;
  /// recompute only: ports whose provider is delta-mode and therefore
  /// needs an accumulated history.
  std::vector<bool> port_history;
  /// Non-recompute activity nodes: one plan per chain member.
  std::vector<MemberPlan> members;
};

// ---- persistent operator state and per-batch staging ---------------------

/// One aggregation group: its accumulators, and its ordinal among the
/// run's groups, the identity a keyed changelog carries. Ordinals are
/// not checkpointed: a resume numbers the restored groups in key order.
struct Group {
  std::vector<AggAcc> accs;
  size_t id = 0;
};

using KeySet = std::set<std::vector<Value>, KeyOrder>;
using BagCounts = std::map<Record, int64_t, KeyOrder>;

struct MemberState {
  KeySet pk_seen;
  std::vector<Record> left_rows, right_rows;  // join histories
  KeyMap<std::vector<size_t>> left_index, right_index;
  KeyMap<Group> groups;
  std::vector<Record> bag_order;  // distinct left rows, first-encounter order
  BagCounts left_counts, right_counts;
};

struct NodeState {
  std::vector<MemberState> members;
  std::vector<std::vector<Record>> port_history;
};

// Every mutation a batch attempt wants to make, staged so a failed (and
// retried) attempt leaves the persistent state untouched. Overlay maps
// hold absolute values copied-on-first-touch from the main state.
struct MemberStaging {
  KeySet pk_new;
  std::vector<Record> left_new, right_new;
  std::vector<std::vector<Value>> left_new_keys, right_new_keys;
  KeyMap<Group> group_overlay;
  size_t new_groups = 0;  // groups the overlay added to `groups`
  std::vector<Record> bag_order_new;
  BagCounts left_counts_overlay, right_counts_overlay;

  void Clear() {
    pk_new.clear();
    left_new.clear();
    right_new.clear();
    left_new_keys.clear();
    right_new_keys.clear();
    group_overlay.clear();
    new_groups = 0;
    bag_order_new.clear();
    left_counts_overlay.clear();
    right_counts_overlay.clear();
  }
};

struct NodeStaging {
  std::vector<MemberStaging> members;
  std::vector<std::vector<Record>> port_append;

  void Clear() {
    for (auto& m : members) m.Clear();
    for (auto& p : port_append) p.clear();
  }
};

// ---- keyed changelogs ----------------------------------------------------

/// What one keyed node's output gained and lost in one batch. The node's
/// output flow holds the upserted rows in sorted group-key order;
/// `ids[i]` is the Group::id of row i. `deletes` are the groups whose row
/// a filter dropped this batch (a no-op where the row was not live).
struct Changelog {
  std::vector<size_t> ids;
  std::vector<size_t> deletes;
};

/// The live rows of a keyed activity node, by Group::id.
struct LiveGroups {
  std::vector<bool> live;
  size_t count = 0;
};

/// Members that map each row on its own, so they can run on the changed
/// rows of a keyed changelog only.
bool IsRowWise(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kSelection:
    case ActivityKind::kNotNull:
    case ActivityKind::kDomainCheck:
    case ActivityKind::kProjection:
    case ActivityKind::kFunction:
    case ActivityKind::kSurrogateKey:
      return true;
    default:
      return false;
  }
}

/// The row-wise members that drop rows; the others map rows 1:1.
bool IsFilter(ActivityKind kind) {
  return kind == ActivityKind::kSelection || kind == ActivityKind::kNotNull ||
         kind == ActivityKind::kDomainCheck;
}

/// Bit-for-bit equal cells (a NaN equals itself, -0.0 differs from 0.0):
/// a filter, which decides each row by its cells alone, decides two
/// such rows alike.
bool SameCells(const Record& a, const Record& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Value& x = a.value(i);
    const Value& y = b.value(i);
    if (x.type() != y.type()) return false;
    if (x.type() == DataType::kDouble) {
      if (std::bit_cast<uint64_t>(x.double_value()) !=
          std::bit_cast<uint64_t>(y.double_value())) {
        return false;
      }
    } else if (!(x == y)) {
      return false;
    }
  }
  return true;
}

// ---- helpers -------------------------------------------------------------

// Absolute-value overlay lookup/touch for the bag counts.
int64_t& OverlayCount(BagCounts& overlay, const BagCounts& main,
                      const Record& r) {
  auto it = overlay.find(r);
  if (it != overlay.end()) return it->second;
  auto base = main.find(r);
  return overlay.emplace(r, base != main.end() ? base->second : 0)
      .first->second;
}

int64_t CombinedCount(const BagCounts& overlay, const BagCounts& main,
                      const Record& r) {
  auto it = overlay.find(r);
  if (it != overlay.end()) return it->second;
  auto base = main.find(r);
  return base != main.end() ? base->second : 0;
}

// ---- state (de)serialization ---------------------------------------------

constexpr uint8_t kTagRecompute = 0xFF;
constexpr uint8_t kTagStateless = 0;
constexpr uint8_t kTagPk = 1;
constexpr uint8_t kTagJoin = 2;
constexpr uint8_t kTagAgg = 3;
constexpr uint8_t kTagBag = 4;

uint8_t TagOf(MemberMode mode) {
  switch (mode) {
    case MemberMode::kStateless:
      return kTagStateless;
    case MemberMode::kPkDelta:
      return kTagPk;
    case MemberMode::kJoinDelta:
      return kTagJoin;
    case MemberMode::kAggRefresh:
      return kTagAgg;
    case MemberMode::kBagRefresh:
      return kTagBag;
  }
  return kTagStateless;
}

void PutAcc(std::string& out, const AggAcc& acc) {
  PutDouble(out, acc.sum);
  PutU64(out, static_cast<uint64_t>(acc.non_null));
  PutValue(out, acc.min);
  PutValue(out, acc.max);
}

StatusOr<AggAcc> ReadAcc(BinaryReader& reader) {
  AggAcc acc;
  ETLOPT_ASSIGN_OR_RETURN(acc.sum, ReadDouble(reader));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t non_null, reader.U64());
  acc.non_null = static_cast<int64_t>(non_null);
  ETLOPT_ASSIGN_OR_RETURN(acc.min, ReadValue(reader));
  ETLOPT_ASSIGN_OR_RETURN(acc.max, ReadValue(reader));
  return acc;
}

void PutCounts(std::string& out, const BagCounts& counts) {
  PutU64(out, counts.size());
  for (const auto& [r, c] : counts) {
    PutRecord(out, r);
    PutU64(out, static_cast<uint64_t>(c));
  }
}

Status ReadCounts(BinaryReader& reader, BagCounts* counts) {
  ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  for (uint64_t i = 0; i < n; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Record r, ReadRecord(reader));
    ETLOPT_ASSIGN_OR_RETURN(uint64_t c, reader.U64());
    (*counts)[std::move(r)] = static_cast<int64_t>(c);
  }
  return Status::OK();
}

std::string SerializeNodeState(const NodePlan& plan, const NodeState& state) {
  std::string out;
  if (plan.recompute) {
    out.push_back(static_cast<char>(kTagRecompute));
    PutU32(out, static_cast<uint32_t>(state.port_history.size()));
    for (const auto& rows : state.port_history) PutRecords(out, rows);
    return out;
  }
  PutU32(out, static_cast<uint32_t>(plan.members.size()));
  for (size_t m = 0; m < plan.members.size(); ++m) {
    const MemberState& ms = state.members[m];
    out.push_back(static_cast<char>(TagOf(plan.members[m].mode)));
    switch (TagOf(plan.members[m].mode)) {
      case kTagStateless:
        break;
      case kTagPk:
        PutU64(out, ms.pk_seen.size());
        for (const auto& key : ms.pk_seen) PutValues(out, key);
        break;
      case kTagJoin:
        PutRecords(out, ms.left_rows);
        PutRecords(out, ms.right_rows);
        break;
      case kTagAgg:
        PutU64(out, ms.groups.size());
        for (const auto& [key, group] : ms.groups) {
          PutValues(out, key);
          PutU32(out, static_cast<uint32_t>(group.accs.size()));
          for (const AggAcc& acc : group.accs) PutAcc(out, acc);
        }
        break;
      case kTagBag:
        PutRecords(out, ms.bag_order);
        PutCounts(out, ms.left_counts);
        PutCounts(out, ms.right_counts);
        break;
    }
  }
  return out;
}

// Rebuilds a join index from a restored row history. Stored rows all
// have non-null keys (null-key rows never join and are never stored).
Status RebuildJoinIndex(
    const std::vector<Record>& rows, const std::vector<size_t>& key_idx,
    KeyMap<std::vector<size_t>>* index) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() <= (key_idx.empty()
                               ? 0
                               : *std::max_element(key_idx.begin(),
                                                   key_idx.end()))) {
      return Status::InvalidArgument("stream checkpoint: short join row");
    }
    (*index)[ExtractKey(rows[i], key_idx)].push_back(i);
  }
  return Status::OK();
}

Status ParseNodeState(const NodePlan& plan, std::string_view blob,
                      NodeState* state) {
  BinaryReader reader(blob);
  if (plan.recompute) {
    ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
    if (tag != kTagRecompute) {
      return Status::InvalidArgument("stream checkpoint: state tag mismatch");
    }
    ETLOPT_ASSIGN_OR_RETURN(uint32_t ports, reader.U32());
    if (ports != state->port_history.size()) {
      return Status::InvalidArgument(
          "stream checkpoint: port count mismatch");
    }
    for (uint32_t p = 0; p < ports; ++p) {
      ETLOPT_ASSIGN_OR_RETURN(state->port_history[p], ReadRecords(reader));
    }
  } else {
    ETLOPT_ASSIGN_OR_RETURN(uint32_t members, reader.U32());
    if (members != plan.members.size()) {
      return Status::InvalidArgument(
          "stream checkpoint: member count mismatch");
    }
    for (uint32_t m = 0; m < members; ++m) {
      const MemberPlan& mp = plan.members[m];
      MemberState& ms = state->members[m];
      ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
      if (tag != TagOf(mp.mode)) {
        return Status::InvalidArgument(
            "stream checkpoint: state tag mismatch");
      }
      switch (tag) {
        case kTagStateless:
          break;
        case kTagPk: {
          ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
          for (uint64_t i = 0; i < n; ++i) {
            ETLOPT_ASSIGN_OR_RETURN(std::vector<Value> key,
                                    ReadValues(reader));
            ms.pk_seen.insert(std::move(key));
          }
          break;
        }
        case kTagJoin: {
          ETLOPT_ASSIGN_OR_RETURN(ms.left_rows, ReadRecords(reader));
          ETLOPT_ASSIGN_OR_RETURN(ms.right_rows, ReadRecords(reader));
          ETLOPT_RETURN_NOT_OK(RebuildJoinIndex(ms.left_rows,
                                                mp.key_idx_left,
                                                &ms.left_index));
          ETLOPT_RETURN_NOT_OK(RebuildJoinIndex(ms.right_rows,
                                                mp.key_idx_right,
                                                &ms.right_index));
          break;
        }
        case kTagAgg: {
          ETLOPT_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
          for (uint64_t i = 0; i < n; ++i) {
            ETLOPT_ASSIGN_OR_RETURN(std::vector<Value> key,
                                    ReadValues(reader));
            ETLOPT_ASSIGN_OR_RETURN(uint32_t accs, reader.U32());
            if (accs != mp.agg_fns.size()) {
              return Status::InvalidArgument(
                  "stream checkpoint: accumulator count mismatch");
            }
            std::vector<AggAcc> vec;
            vec.reserve(accs);
            for (uint32_t a = 0; a < accs; ++a) {
              ETLOPT_ASSIGN_OR_RETURN(AggAcc acc, ReadAcc(reader));
              vec.push_back(std::move(acc));
            }
            const size_t id = ms.groups.size();
            ms.groups.emplace(std::move(key), Group{std::move(vec), id});
          }
          break;
        }
        case kTagBag: {
          ETLOPT_ASSIGN_OR_RETURN(ms.bag_order, ReadRecords(reader));
          ETLOPT_RETURN_NOT_OK(ReadCounts(reader, &ms.left_counts));
          ETLOPT_RETURN_NOT_OK(ReadCounts(reader, &ms.right_counts));
          break;
        }
        default:
          return Status::InvalidArgument("stream checkpoint: bad state tag");
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("stream checkpoint: trailing state");
  }
  return Status::OK();
}

// ---- the per-run driver --------------------------------------------------

// One stream run. Each micro-batch runs on the node driver with the run
// itself as the strategy: sources, realignment and row counts are the
// serial engine's, and RunChain computes a node's batch output against
// the node's persistent operator state, staging every mutation so that
// only Commit, after the whole batch succeeded, applies it.
class StreamRun : public SerialStrategy {
 public:
  StreamRun(const StreamOptions& options, const Workflow& workflow,
            const ExecutionContext& context, std::string checkpoint_path,
            uint64_t checkpoint_every)
      : SerialStrategy(context),
        options_(options),
        workflow_(workflow),
        checkpoint_path_(std::move(checkpoint_path)),
        checkpoint_every_(checkpoint_every),
        rng_(options.retry_seed) {}

  Status BuildPlan(StreamStats* stats) {
    const std::set<NodeId> keyed = KeyedNodes();
    for (NodeId id : workflow_.TopoOrder()) {
      NodePlan plan;
      plan.keyed = keyed.count(id) != 0;
      const std::vector<NodeId> providers = workflow_.Providers(id);
      if (plan.keyed && !providers.empty() && plans_.at(providers[0]).keyed) {
        // Recordsets pass their provider's changelog through unchanged.
        plan.keyed_from = workflow_.IsRecordSet(providers[0])
                              ? plans_.at(providers[0]).keyed_from
                              : std::optional<NodeId>(providers[0]);
      }
      if (workflow_.IsRecordSet(id)) {
        plan.is_target = !providers.empty() && workflow_.Consumers(id).empty();
        plan.refresh_output =
            !providers.empty() && plans_.at(providers[0]).refresh_output;
      } else {
        bool any_refresh_input = false;
        for (NodeId p : providers) {
          any_refresh_input |= plans_.at(p).refresh_output;
        }
        if (any_refresh_input && !plan.keyed) {
          plan.recompute = true;
          plan.refresh_output = true;
          plan.port_history.resize(providers.size());
          for (size_t i = 0; i < providers.size(); ++i) {
            plan.port_history[i] = !plans_.at(providers[i]).refresh_output;
          }
        } else {
          ETLOPT_RETURN_NOT_OK(PlanMembers(id, &plan));
          // A keyed row-wise chain has only stateless members, but its
          // output is still the (keyed) refresh of its input.
          plan.refresh_output |= plan.keyed;
        }
        if (plan.refresh_output) {
          ++stats->refresh_nodes;
        } else {
          ++stats->delta_nodes;
        }
        if (plan.keyed) ++stats->keyed_nodes;
      }
      plans_.emplace(id, std::move(plan));
    }
    // Allocate persistent state and per-batch staging.
    for (const auto& [id, plan] : plans_) {
      NodeState state;
      NodeStaging staging;
      state.members.resize(plan.members.size());
      staging.members.resize(plan.members.size());
      state.port_history.resize(plan.port_history.size());
      staging.port_append.resize(plan.port_history.size());
      states_.emplace(id, std::move(state));
      staging_.emplace(id, std::move(staging));
    }
    return Status::OK();
  }

  bool NodeHasState(NodeId id) const {
    const NodePlan& plan = plans_.at(id);
    if (plan.recompute) {
      return std::any_of(plan.port_history.begin(), plan.port_history.end(),
                         [](bool h) { return h; });
    }
    for (const MemberPlan& mp : plan.members) {
      if (mp.mode != MemberMode::kStateless) return true;
    }
    return false;
  }

  /// Tries to restore from the run's checkpoint. Returns the batch
  /// frontier to start from (0 when starting fresh); fills `result`
  /// with the restored targets/rows_out on success.
  StatusOr<uint64_t> TryResume(const MicroBatchSource& source,
                               uint64_t workflow_hash,
                               ExecutionResult* result, StreamStats* stats) {
    if (checkpoint_path_.empty()) return uint64_t{0};
    std::error_code ec;
    if (!fs::exists(checkpoint_path_, ec) || ec) return uint64_t{0};
    auto reject = [&]() -> uint64_t {
      ++stats->checkpoints_rejected;
      return 0;
    };
    ETLOPT_ASSIGN_OR_RETURN(
        std::optional<std::string> bytes,
        ReadCheckpointFile(checkpoint_path_,
                           FaultSite::kStreamStateCheckpoint));
    if (!bytes.has_value()) return reject();
    auto checkpoint = ParseStreamCheckpoint(*bytes);
    if (!checkpoint.ok() || checkpoint->workflow_hash != workflow_hash ||
        checkpoint->capture_fingerprint != source.CaptureFingerprint() ||
        checkpoint->batch_count != source.batch_count() ||
        checkpoint->next_batch > checkpoint->batch_count) {
      return reject();
    }
    // Restore operator state all-or-nothing: a missing or malformed
    // blob rejects the whole checkpoint rather than resuming half the
    // state.
    std::map<NodeId, NodeState> restored;
    for (const auto& [id, plan] : plans_) {
      if (!NodeHasState(id)) continue;
      auto blob = checkpoint->state_blobs.find("n" + std::to_string(id));
      if (blob == checkpoint->state_blobs.end()) return reject();
      NodeState state;
      state.members.resize(plan.members.size());
      state.port_history.resize(plan.port_history.size());
      if (!ParseNodeState(plan, blob->second, &state).ok()) return reject();
      restored.emplace(id, std::move(state));
    }
    for (auto& [id, state] : restored) states_[id] = std::move(state);
    // Keyed tables are not checkpointed: the first batch rebuilds them
    // from the restored accumulators.
    rebuild_keyed_ = true;
    result->rows_out = std::move(checkpoint->rows_out);
    result->target_data = std::move(checkpoint->target_data);
    stats->resumed = true;
    stats->batches_skipped = static_cast<size_t>(checkpoint->next_batch);
    return checkpoint->next_batch;
  }

  /// Runs batch `b` on the node driver, retrying the whole batch on a
  /// transient fault, and commits it once it succeeded.
  Status RunBatch(size_t b, MicroBatchSource& source,
                  ExecutionResult* result, StreamStats* stats) {
    ExecutionResult batch_result;
    auto attempt = [&]() -> Status {
      ETLOPT_RETURN_NOT_OK(source.Seek(b));
      ETLOPT_ASSIGN_OR_RETURN(MicroBatch batch, source.Next());
      for (auto& [id, staging] : staging_) staging.Clear();
      changes_.clear();
      // Only the batch rows: the lookup tables stay in ctx_.
      ExecutionInput input;
      input.source_data = std::move(batch.source_rows);
      NodePolicy every_node;
      ETLOPT_ASSIGN_OR_RETURN(batch_result,
                              DriveNodes(workflow_, input, *this, every_node));
      return Status::OK();
    };
    ETLOPT_RETURN_NOT_OK(RetryWithBackoff(options_.retry, rng_,
                                          StrFormat("batch %zu", b).c_str(),
                                          attempt, &stats->retries));
    Commit(std::move(batch_result), result);
    return Status::OK();
  }

  /// The strategy's chain step for node `id` on this batch's inputs.
  StatusOr<Flow> RunChain(NodeId id, const ActivityChain& chain,
                          const std::vector<Schema>& in_schemas,
                          std::vector<Flow>& inputs) {
    const NodePlan& plan = plans_.at(id);
    NodeState& state = states_.at(id);
    NodeStaging& staging = staging_.at(id);
    if (plan.recompute) {
      // Rerun the whole chain over the stream so far: each delta-mode
      // port puts its history in front of this batch's rows.
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (!plan.port_history[i]) continue;
        std::vector<Record> full = state.port_history[i];
        full.insert(full.end(), inputs[i].begin(), inputs[i].end());
        staging.port_append[i] = std::exchange(inputs[i], std::move(full));
      }
      return chain.Execute(in_schemas, std::move(inputs), ctx_);
    }
    // A keyed node's changelog: a follower starts from its provider's
    // (its input rows are that changelog's upserts), an origin from an
    // empty one that its aggregation fills.
    Changelog* log = nullptr;
    if (plan.keyed) {
      log = &changes_[id];
      if (plan.keyed_from.has_value()) *log = changes_.at(*plan.keyed_from);
    }
    bool keyed_flow = plan.keyed_from.has_value();
    // The inputs are moved into stateless members and discarded after
    // each member; a retry re-drives the whole batch from its source.
    for (size_t m = 0; m < plan.members.size(); ++m) {
      const MemberPlan& mp = plan.members[m];
      const Activity& activity = chain.members()[m].activity;
      StatusOr<Flow> out =
          keyed_flow ? RunRowWise(activity, mp, std::move(inputs), *log)
          : mp.mode == MemberMode::kStateless
              ? activity.Execute(mp.input_schemas, std::move(inputs), ctx_)
              : ExecuteMember(mp, state.members[m], staging.members[m], inputs,
                              log != nullptr ? &log->ids : nullptr);
      if (!out.ok()) return out.status();
      inputs.clear();
      inputs.push_back(std::move(out).value());
      keyed_flow |= mp.mode == MemberMode::kAggRefresh && log != nullptr;
    }
    return std::move(inputs[0]);
  }

  /// The keyed targets' tables in `targets`, sorted by group key: the
  /// rows a full refresh would have emitted, in the same order. A no-op
  /// until a batch of this run committed (a run that resumed at its end
  /// keeps the restored tables).
  void MaterializeKeyed(
      std::map<std::string, std::vector<Record>>* targets) const {
    if (!committed_) return;
    for (const auto& [id, table] : keyed_tables_) {
      // The origin's groups, in key order, give the rows their order.
      NodeId origin = *plans_.at(id).keyed_from;
      while (plans_.at(origin).keyed_from.has_value()) {
        origin = *plans_.at(origin).keyed_from;
      }
      const std::vector<MemberPlan>& members = plans_.at(origin).members;
      size_t agg = 0;
      while (members[agg].mode != MemberMode::kAggRefresh) ++agg;
      std::vector<Record>& rows = (*targets)[workflow_.recordset(id).name];
      rows.clear();
      for (const auto& [key, group] : states_.at(origin).members[agg].groups) {
        if (group.id < table.size() && table[group.id].has_value()) {
          rows.push_back(*table[group.id]);
        }
      }
    }
  }

  Status MaybeCheckpoint(uint64_t next_batch, uint64_t batch_count,
                         uint64_t workflow_hash, uint64_t fingerprint,
                         const ExecutionResult& result, StreamStats* stats) {
    if (checkpoint_path_.empty()) return Status::OK();
    const bool is_last = next_batch == batch_count;
    if (!is_last && next_batch % checkpoint_every_ != 0) {
      return Status::OK();
    }
    StreamCheckpoint checkpoint;
    checkpoint.workflow_hash = workflow_hash;
    checkpoint.capture_fingerprint = fingerprint;
    checkpoint.next_batch = next_batch;
    checkpoint.batch_count = batch_count;
    checkpoint.rows_out = result.rows_out;
    checkpoint.target_data = result.target_data;
    MaterializeKeyed(&checkpoint.target_data);
    for (const auto& [id, plan] : plans_) {
      if (!NodeHasState(id)) continue;
      checkpoint.state_blobs["n" + std::to_string(id)] =
          SerializeNodeState(plan, states_.at(id));
    }
    ETLOPT_ASSIGN_OR_RETURN(
        bool written,
        WriteCheckpointFile(checkpoint_path_,
                            SerializeStreamCheckpoint(checkpoint),
                            FaultSite::kStreamStateCheckpoint,
                            options_.recovery_plan.enabled, options_.retry,
                            rng_, &stats->retries));
    if (written) {
      ++stats->checkpoints_written;
    } else {
      // Best-effort, like the recovery checkpoints: the stream still
      // completes, it just resumes from an earlier frontier on a crash.
      ++stats->checkpoint_write_failures;
    }
    return Status::OK();
  }

 private:
  /// The nodes that carry a keyed changelog instead of a full refresh,
  /// chosen by plan shape alone. An origin is an activity node whose
  /// inputs are deltas and whose chain turns refresh at an aggregation
  /// followed by row-wise members only. A follower is a row-wise chain
  /// whose one provider is a candidate; a recordset follows its
  /// provider. A candidate is keyed only if every consumer is keyed (a
  /// target has none), and it descends from a keyed origin. Every other
  /// refresh node keeps the full-refresh path.
  std::set<NodeId> KeyedNodes() const {
    std::map<NodeId, bool> refresh, candidate, origin;
    for (NodeId id : workflow_.TopoOrder()) {
      const std::vector<NodeId> providers = workflow_.Providers(id);
      if (workflow_.IsRecordSet(id)) {
        refresh[id] = !providers.empty() && refresh[providers[0]];
        candidate[id] = !providers.empty() && candidate[providers[0]];
        continue;
      }
      bool refresh_in = false;
      for (NodeId p : providers) refresh_in |= refresh[p];
      const auto& members = workflow_.chain(id).members();
      size_t turn = 0;  // the first member that makes the stream refresh
      while (turn < members.size()) {
        const ActivityKind k = members[turn].activity.kind();
        if (k == ActivityKind::kAggregation ||
            k == ActivityKind::kDifference ||
            k == ActivityKind::kIntersection) {
          break;
        }
        ++turn;
      }
      auto row_wise_from = [&](size_t m) {
        for (; m < members.size(); ++m) {
          if (!IsRowWise(members[m].activity.kind())) return false;
        }
        return true;
      };
      refresh[id] = refresh_in || turn < members.size();
      origin[id] = !refresh_in && turn < members.size() &&
                   members[turn].activity.kind() ==
                       ActivityKind::kAggregation &&
                   row_wise_from(turn + 1);
      candidate[id] = origin[id] || (refresh_in && providers.size() == 1 &&
                                     candidate[providers[0]] &&
                                     row_wise_from(0));
    }
    const std::vector<NodeId>& topo = workflow_.TopoOrder();
    std::set<NodeId> consumers_ok;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      if (!candidate[*it]) continue;
      const std::vector<NodeId> consumers = workflow_.Consumers(*it);
      if (std::all_of(consumers.begin(), consumers.end(),
                      [&](NodeId c) { return consumers_ok.count(c) != 0; })) {
        consumers_ok.insert(*it);
      }
    }
    std::set<NodeId> keyed;
    for (NodeId id : topo) {
      if (consumers_ok.count(id) == 0) continue;
      if (origin[id] || keyed.count(workflow_.Providers(id)[0]) != 0) {
        keyed.insert(id);
      }
    }
    return keyed;
  }

  Status PlanMembers(NodeId id, NodePlan* plan) {
    const ActivityChain& chain = workflow_.chain(id);
    std::vector<Schema> cur_inputs = workflow_.InputSchemas(id);
    bool refresh = false;
    for (const auto& member : chain.members()) {
      const Activity& a = member.activity;
      MemberPlan mp;
      mp.input_schemas = cur_inputs;
      ETLOPT_ASSIGN_OR_RETURN(mp.output_schema,
                              a.ComputeOutputSchema(cur_inputs));
      // Once the stream is refresh, every later member is stateless.
      if (!refresh) {
        switch (a.kind()) {
          case ActivityKind::kPrimaryKeyCheck: {
            mp.mode = MemberMode::kPkDelta;
            const auto& p = a.params_as<PrimaryKeyParams>();
            ETLOPT_ASSIGN_OR_RETURN(
                mp.key_idx_left, AttrIndices(cur_inputs[0], p.key_attrs));
            break;
          }
          case ActivityKind::kJoin: {
            mp.mode = MemberMode::kJoinDelta;
            const auto& p = a.params_as<JoinParams>();
            ETLOPT_ASSIGN_OR_RETURN(
                mp.key_idx_left, AttrIndices(cur_inputs[0], p.key_attrs));
            ETLOPT_ASSIGN_OR_RETURN(
                mp.key_idx_right, AttrIndices(cur_inputs[1], p.key_attrs));
            mp.right_carry_idx = JoinPassthrough(cur_inputs[1], p.key_attrs);
            break;
          }
          case ActivityKind::kAggregation: {
            mp.mode = MemberMode::kAggRefresh;
            const auto& p = a.params_as<AggregationParams>();
            ETLOPT_ASSIGN_OR_RETURN(
                mp.group_idx, AttrIndices(cur_inputs[0], p.group_by));
            for (const auto& spec : p.aggregates) {
              auto i = cur_inputs[0].IndexOf(spec.arg);
              if (!i.has_value()) {
                return Status::Internal("stream: missing agg arg " +
                                        spec.arg);
              }
              mp.arg_idx.push_back(*i);
              mp.agg_fns.push_back(spec.fn);
            }
            refresh = true;
            break;
          }
          case ActivityKind::kDifference:
          case ActivityKind::kIntersection: {
            mp.mode = MemberMode::kBagRefresh;
            mp.keep_matched = a.kind() == ActivityKind::kIntersection;
            for (const auto& attr : mp.output_schema.attributes()) {
              auto i = cur_inputs[1].IndexOf(attr.name);
              if (!i.has_value()) {
                return Status::Internal("stream: bag realign missing " +
                                        attr.name);
              }
              mp.right_realign_idx.push_back(*i);
            }
            refresh = true;
            break;
          }
          default:
            break;
        }
      }
      cur_inputs = {mp.output_schema};
      plan->members.push_back(std::move(mp));
    }
    plan->refresh_output = refresh;
    return Status::OK();
  }

  // Row-wise member `activity` over the upserted rows of a keyed
  // changelog, `inputs[0][i]` of group `log.ids[i]`. A 1:1 member keeps
  // every group; a filter keeps an order-preserving subsequence of its
  // rows, unmodified, and the groups of the rows it dropped become
  // deletes. Errors are the full refresh's: the unchanged rows passed
  // this member in an earlier batch, so the first failing row is a
  // changed one.
  StatusOr<std::vector<Record>> RunRowWise(
      const Activity& activity, const MemberPlan& mp,
      std::vector<std::vector<Record>> inputs, Changelog& log) {
    if (!IsFilter(activity.kind())) {
      return activity.Execute(mp.input_schemas, std::move(inputs), ctx_);
    }
    const std::vector<Record> before = inputs[0];
    ETLOPT_ASSIGN_OR_RETURN(
        std::vector<Record> kept,
        activity.Execute(mp.input_schemas, std::move(inputs), ctx_));
    // Matching the kept rows greedily against `before` recovers exactly
    // which groups survived: a dropped row bit-identical to a kept one
    // would have been kept too.
    size_t j = 0;
    size_t live = 0;
    for (size_t i = 0; i < before.size(); ++i) {
      if (j < kept.size() && SameCells(before[i], kept[j])) {
        log.ids[live++] = log.ids[i];
        ++j;
      } else {
        log.deletes.push_back(log.ids[i]);
      }
    }
    log.ids.resize(live);
    if (j != kept.size()) {
      return Status::Internal("stream: filter output is not a subsequence");
    }
    return kept;
  }

  // One stateful chain member over its batch inputs, against `ms`, with
  // every state change staged in `mstg`. On a keyed node (`ids` set) an
  // aggregation emits its keyed changelog and appends the Group::id of
  // every row it emits to `ids`.
  StatusOr<std::vector<Record>> ExecuteMember(
      const MemberPlan& mp, const MemberState& ms, MemberStaging& mstg,
      const std::vector<std::vector<Record>>& inputs,
      std::vector<size_t>* ids) {
    std::vector<Record> out;
    switch (mp.mode) {
      case MemberMode::kStateless:
        break;  // no state: RunChain runs the activity itself

      case MemberMode::kPkDelta: {
        for (const Record& r : inputs[0]) {
          std::vector<Value> key = ExtractKey(r, mp.key_idx_left);
          if (ms.pk_seen.count(key) != 0 || mstg.pk_new.count(key) != 0) {
            continue;
          }
          mstg.pk_new.insert(std::move(key));
          out.push_back(r);
        }
        return out;
      }

      case MemberMode::kJoinDelta: {
        const std::vector<Record>& delta_left = inputs[0];
        const std::vector<Record>& delta_right = inputs[1];
        // Stage this batch's joinable rows (null keys never join and
        // are never stored).
        KeyMap<std::vector<size_t>> staged_right;
        for (const Record& r : delta_right) {
          std::vector<Value> key = ExtractKey(r, mp.key_idx_right);
          if (HasNull(key)) continue;
          staged_right[key].push_back(mstg.right_new.size());
          mstg.right_new.push_back(r);
          mstg.right_new_keys.push_back(std::move(key));
        }
        auto combine = [&](const Record& l, const Record& r) {
          Record nr = l;
          for (size_t i : mp.right_carry_idx) nr.Append(r.value(i));
          out.push_back(std::move(nr));
        };
        // New pairs, each exactly once:
        //   (delta-left x old-right), (delta-left x delta-right),
        //   (old-left x delta-right).
        for (const Record& l : delta_left) {
          std::vector<Value> key = ExtractKey(l, mp.key_idx_left);
          if (HasNull(key)) continue;
          auto old_hit = ms.right_index.find(key);
          if (old_hit != ms.right_index.end()) {
            for (size_t i : old_hit->second) combine(l, ms.right_rows[i]);
          }
          auto new_hit = staged_right.find(key);
          if (new_hit != staged_right.end()) {
            for (size_t i : new_hit->second) combine(l, mstg.right_new[i]);
          }
          mstg.left_new.push_back(l);
          mstg.left_new_keys.push_back(std::move(key));
        }
        for (const Record& r : delta_right) {
          std::vector<Value> key = ExtractKey(r, mp.key_idx_right);
          if (HasNull(key)) continue;
          auto old_hit = ms.left_index.find(key);
          if (old_hit != ms.left_index.end()) {
            for (size_t i : old_hit->second) combine(ms.left_rows[i], r);
          }
        }
        return out;
      }

      case MemberMode::kAggRefresh: {
        for (const Record& r : inputs[0]) {
          std::vector<Value> key = ExtractKey(r, mp.group_idx);
          auto it = mstg.group_overlay.find(key);
          if (it == mstg.group_overlay.end()) {
            auto base = ms.groups.find(key);
            it = mstg.group_overlay
                     .emplace(std::move(key),
                              base != ms.groups.end()
                                  ? base->second
                                  : Group{std::vector<AggAcc>(
                                              mp.agg_fns.size()),
                                          ms.groups.size() +
                                              mstg.new_groups++})
                     .first;
          }
          for (size_t i = 0; i < mp.arg_idx.size(); ++i) {
            it->second.accs[i].Add(r.value(mp.arg_idx[i]));
          }
        }
        auto emit = [&](const std::vector<Value>& key, const Group& group) {
          Record nr;
          for (const Value& k : key) nr.Append(k);
          for (size_t i = 0; i < mp.agg_fns.size(); ++i) {
            nr.Append(group.accs[i].Result(mp.agg_fns[i]));
          }
          out.push_back(std::move(nr));
          if (ids != nullptr) ids->push_back(group.id);
        };
        // Keyed changelog: the overlay holds exactly the groups this
        // batch touched, in sorted key order.
        if (ids != nullptr && !rebuild_keyed_) {
          out.reserve(mstg.group_overlay.size());
          for (const auto& [key, group] : mstg.group_overlay) {
            emit(key, group);
          }
          return out;
        }
        // Full refresh in sorted key order: merge the persistent map
        // with this batch's overlay (overlay wins) — exactly the table
        // the batch engine would emit over the whole prefix.
        auto main_it = ms.groups.begin();
        auto over_it = mstg.group_overlay.begin();
        while (main_it != ms.groups.end() ||
               over_it != mstg.group_overlay.end()) {
          if (over_it == mstg.group_overlay.end() ||
              (main_it != ms.groups.end() &&
               KeyOrder()(main_it->first, over_it->first))) {
            emit(main_it->first, main_it->second);
            ++main_it;
          } else {
            if (main_it != ms.groups.end() &&
                !KeyOrder()(over_it->first, main_it->first)) {
              ++main_it;  // overlay shadows the stale persistent entry
            }
            emit(over_it->first, over_it->second);
            ++over_it;
          }
        }
        return out;
      }

      case MemberMode::kBagRefresh: {
        for (const Record& r : inputs[1]) {
          ++OverlayCount(mstg.right_counts_overlay, ms.right_counts,
                         etlopt::Realign(r, mp.right_realign_idx));
        }
        for (const Record& l : inputs[0]) {
          int64_t& c =
              OverlayCount(mstg.left_counts_overlay, ms.left_counts, l);
          if (c == 0) mstg.bag_order_new.push_back(l);
          ++c;
        }
        // Full refresh: (cl - cr)+ copies for difference, min(cl, cr)
        // for intersection, distinct left rows in first-encounter order.
        auto emit_counts = [&](const Record& r) {
          const int64_t cl =
              CombinedCount(mstg.left_counts_overlay, ms.left_counts, r);
          const int64_t cr =
              CombinedCount(mstg.right_counts_overlay, ms.right_counts, r);
          const int64_t n = mp.keep_matched ? std::min(cl, cr)
                                            : std::max<int64_t>(cl - cr, 0);
          for (int64_t i = 0; i < n; ++i) out.push_back(r);
        };
        for (const Record& r : ms.bag_order) emit_counts(r);
        for (const Record& r : mstg.bag_order_new) emit_counts(r);
        return out;
      }
    }
    return Status::Internal("unhandled stream member mode");
  }

  // Applies a successful batch: its staged mutations become persistent
  // state, and its outputs fold into the run's result (delta nodes and
  // targets accumulate, refresh ones are replaced, keyed ones apply
  // their changelog).
  void Commit(ExecutionResult batch, ExecutionResult* result) {
    for (auto& [id, staging] : staging_) {
      NodeState& state = states_.at(id);
      for (size_t p = 0; p < staging.port_append.size(); ++p) {
        auto& history = state.port_history[p];
        auto& append = staging.port_append[p];
        history.insert(history.end(),
                       std::make_move_iterator(append.begin()),
                       std::make_move_iterator(append.end()));
      }
      for (size_t m = 0; m < staging.members.size(); ++m) {
        MemberState& ms = state.members[m];
        MemberStaging& mstg = staging.members[m];
        ms.pk_seen.insert(std::make_move_iterator(mstg.pk_new.begin()),
                          std::make_move_iterator(mstg.pk_new.end()));
        for (size_t i = 0; i < mstg.left_new.size(); ++i) {
          ms.left_index[std::move(mstg.left_new_keys[i])].push_back(
              ms.left_rows.size());
          ms.left_rows.push_back(std::move(mstg.left_new[i]));
        }
        for (size_t i = 0; i < mstg.right_new.size(); ++i) {
          ms.right_index[std::move(mstg.right_new_keys[i])].push_back(
              ms.right_rows.size());
          ms.right_rows.push_back(std::move(mstg.right_new[i]));
        }
        for (auto& [key, group] : mstg.group_overlay) {
          ms.groups[key] = std::move(group);
        }
        for (auto& [r, c] : mstg.left_counts_overlay) ms.left_counts[r] = c;
        for (auto& [r, c] : mstg.right_counts_overlay) {
          ms.right_counts[r] = c;
        }
        ms.bag_order.insert(ms.bag_order.end(),
                            std::make_move_iterator(mstg.bag_order_new.begin()),
                            std::make_move_iterator(mstg.bag_order_new.end()));
      }
      staging.Clear();
    }
    for (const auto& [id, count] : batch.rows_out) {
      const NodePlan& plan = plans_.at(id);
      if (plan.keyed) {
        // A keyed node's rows_out is its live row count.
        const Changelog& log = changes_.at(id);
        LiveGroups& groups = keyed_live_[id];
        for (size_t g : log.deletes) {
          if (g < groups.live.size() && groups.live[g]) {
            groups.live[g] = false;
            --groups.count;
          }
        }
        for (size_t g : log.ids) {
          if (g >= groups.live.size()) groups.live.resize(g + 1);
          if (!groups.live[g]) {
            groups.live[g] = true;
            ++groups.count;
          }
        }
        result->rows_out[id] = groups.count;
      } else if (plan.refresh_output) {
        result->rows_out[id] = count;
      } else {
        result->rows_out[id] += count;
      }
    }
    for (const auto& [id, plan] : plans_) {
      if (!plan.is_target) continue;
      const std::string& name = workflow_.recordset(id).name;
      std::vector<Record>& rows = batch.target_data.at(name);
      std::vector<Record>& target = result->target_data[name];
      if (plan.keyed) {
        // Held by group; MaterializeKeyed orders it where observed.
        const Changelog& log = changes_.at(*plan.keyed_from);
        std::vector<std::optional<Record>>& table = keyed_tables_[id];
        for (size_t g : log.deletes) {
          if (g < table.size()) table[g].reset();
        }
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t g = log.ids[i];
          if (g >= table.size()) table.resize(g + 1);
          table[g] = std::move(rows[i]);
        }
        target.clear();
      } else if (plan.refresh_output) {
        target = std::move(rows);
      } else {
        target.insert(target.end(), std::make_move_iterator(rows.begin()),
                      std::make_move_iterator(rows.end()));
      }
    }
    rebuild_keyed_ = false;
    committed_ = true;
  }

  const StreamOptions& options_;
  const Workflow& workflow_;
  const std::string checkpoint_path_;
  const uint64_t checkpoint_every_;
  Rng rng_;
  std::map<NodeId, NodePlan> plans_;
  std::map<NodeId, NodeState> states_;
  std::map<NodeId, NodeStaging> staging_;
  // Keyed nodes: this batch's changelogs (staged like the overlays), the
  // live groups of each keyed activity node, and each keyed target's
  // rows by Group::id. Rebuilt, not checkpointed.
  std::map<NodeId, Changelog> changes_;
  std::map<NodeId, LiveGroups> keyed_live_;
  std::map<NodeId, std::vector<std::optional<Record>>> keyed_tables_;
  // Set by a resume: the next batch emits every group, not just the
  // changed ones, so the keyed state above is rebuilt.
  bool rebuild_keyed_ = false;
  // Some batch of this run committed.
  bool committed_ = false;
};

}  // namespace

StreamExecutor::StreamExecutor(StreamOptions options)
    : options_(std::move(options)) {}

std::string StreamExecutor::CheckpointPathFor(uint64_t workflow_hash,
                                              uint64_t fingerprint) const {
  if (options_.checkpoint_dir.empty()) return "";
  return options_.checkpoint_dir +
         StrFormat("/stream_%016llx_%016llx.ckpt",
                   static_cast<unsigned long long>(workflow_hash),
                   static_cast<unsigned long long>(fingerprint));
}

StatusOr<ExecutionResult> StreamExecutor::Run(const Workflow& workflow,
                                              const ExecutionInput& capture,
                                              StreamStats* stats_out) {
  ETLOPT_RETURN_NOT_OK(ValidateStreamOptions(options_));
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  StreamStats local_stats;
  StreamStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats = StreamStats{};
  ETLOPT_ASSIGN_OR_RETURN(MicroBatchSource source,
                          MicroBatchSource::Make(workflow, capture, options_));
  const uint64_t workflow_hash = workflow.SignatureHash();
  const uint64_t fingerprint = source.CaptureFingerprint();
  const std::string checkpoint_path =
      CheckpointPathFor(workflow_hash, fingerprint);
  const uint64_t checkpoint_every =
      options_.recovery_plan.enabled
          ? PlannedStreamCheckpointInterval(options_.recovery_plan,
                                            source.batch_count())
          : static_cast<uint64_t>(options_.checkpoint_every_batches);
  stats.checkpoint_interval = checkpoint_every;

  StreamRun run(options_, workflow, source.context(), checkpoint_path,
                checkpoint_every);
  ETLOPT_RETURN_NOT_OK(run.BuildPlan(&stats));

  ExecutionResult result;
  ETLOPT_ASSIGN_OR_RETURN(
      uint64_t frontier,
      run.TryResume(source, workflow_hash, &result, &stats));

  for (uint64_t b = frontier; b < source.batch_count(); ++b) {
    const SteadyClock::time_point start = SteadyClock::now();
    ETLOPT_RETURN_NOT_OK(
        run.RunBatch(static_cast<size_t>(b), source, &result, &stats));
    ++stats.batches_run;
    Status checkpointed = run.MaybeCheckpoint(
        b + 1, source.batch_count(), workflow_hash, fingerprint, result,
        &stats);
    stats.batch_micros.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - start)
            .count());
    ETLOPT_RETURN_NOT_OK(checkpointed);
  }
  run.MaterializeKeyed(&result.target_data);

  if (!checkpoint_path.empty()) {
    if (options_.remove_checkpoints_on_success) {
      std::error_code ec;
      fs::remove(checkpoint_path, ec);  // best-effort cleanup
    }
    // Bounded retention of stale sibling stream_*.ckpt files.
    stats.stale_checkpoints_pruned = PruneOldest(
        options_.checkpoint_dir, checkpoint_path,
        options_.max_retained_checkpoints, [](const fs::directory_entry& e) {
          std::error_code ec;
          const std::string name = e.path().filename().string();
          return e.is_regular_file(ec) && !ec &&
                 StartsWith(name, "stream_") && EndsWith(name, ".ckpt");
        });
  }
  return result;
}

Status StreamExecutor::ClearCheckpoints(const Workflow& workflow,
                                        const ExecutionInput& capture) const {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  ETLOPT_ASSIGN_OR_RETURN(
      uint64_t fingerprint,
      MicroBatchSource::FingerprintOf(workflow, capture, options_));
  const std::string path =
      CheckpointPathFor(workflow.SignatureHash(), fingerprint);
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return Status::IOError("cannot remove stream checkpoint: " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace etlopt
