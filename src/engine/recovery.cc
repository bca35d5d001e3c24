#include "engine/recovery.h"

#include <chrono>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "engine/node_driver.h"
#include "fault/fault_injector.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::string_view kCheckpointMagic = "ETLCKPT1";

// Whether `id` is a recovery-point node under `policy`. `plan_nodes` is
// the resolved kRecoveryPlan node set (ignored for other policies).
bool IsCheckpointNode(const Workflow& workflow, NodeId id,
                      CheckpointPolicy policy,
                      const std::unordered_set<NodeId>& plan_nodes) {
  switch (policy) {
    case CheckpointPolicy::kNone:
      return false;
    case CheckpointPolicy::kBoundaries:
      return workflow.IsRecordSet(id) && !workflow.Providers(id).empty();
    case CheckpointPolicy::kAllNodes:
      return !workflow.IsRecordSet(id) ||
             !workflow.Providers(id).empty();
    case CheckpointPolicy::kRecoveryPlan:
      return plan_nodes.count(id) != 0;
  }
  return false;
}

// Resolves a RecoveryPointPlan's labels against `workflow`: the nodes
// whose priority labels the plan names. Labels survive transitions and
// serialization, raw NodeIds do not — so this is the only join the
// executor trusts.
std::unordered_set<NodeId> ResolvePlanNodes(const Workflow& workflow,
                                            const RecoveryPointPlan& plan) {
  std::unordered_set<NodeId> nodes;
  if (!plan.enabled) return nodes;
  std::unordered_set<std::string> wanted(plan.labels.begin(),
                                         plan.labels.end());
  for (NodeId id : workflow.TopoOrder()) {
    if (wanted.count(workflow.PriorityLabelOf(id)) != 0) nodes.insert(id);
  }
  return nodes;
}

std::string CheckpointPath(const std::string& run_dir, NodeId id) {
  return run_dir + "/node_" + std::to_string(static_cast<long long>(id)) +
         ".ckpt";
}

}  // namespace

Status ValidateRecoveryOptions(const RecoveryOptions& options) {
  ETLOPT_RETURN_NOT_OK(ValidateRetryPolicy(options.retry));
  if (options.deadline_millis < 0) {
    return Status::InvalidArgument(StrFormat(
        "recovery: deadline_millis must be >= 0 (0 = unlimited), got %lld",
        static_cast<long long>(options.deadline_millis)));
  }
  if (options.checkpoint_policy == CheckpointPolicy::kRecoveryPlan &&
      !options.recovery_plan.enabled) {
    return Status::InvalidArgument(
        "recovery: checkpoint_policy kRecoveryPlan requires an enabled "
        "recovery_plan (run the optimizer with SearchOptions::reliability)");
  }
  return Status::OK();
}

uint64_t ExecutionInputFingerprint(const ExecutionInput& input) {
  uint64_t h = kFnv1aBasis;
  std::string buf;
  auto mix = [&h, &buf]() {
    h = Fnv1a64(buf, h);
    buf.clear();
  };
  for (const auto& [name, rows] : input.source_data) {
    PutU32(buf, static_cast<uint32_t>(name.size()));
    buf += name;
    PutU64(buf, rows.size());
    mix();
    for (const Record& r : rows) {
      PutRecord(buf, r);
      mix();
    }
  }
  for (const auto& [name, table] : input.context.lookups) {
    PutU32(buf, static_cast<uint32_t>(name.size()));
    buf += name;
    PutU64(buf, table.size());
    mix();
    for (const auto& [key, value] : table) {
      PutValues(buf, key);
      PutValue(buf, value);
      mix();
    }
  }
  return h;
}

// Same bytes as SerializeCheckpoint, but from borrowed pieces — the hot
// write path serializes a node's rows in place instead of copying them
// into a Checkpoint first.
std::string SerializeCheckpointParts(uint64_t workflow_hash,
                                     uint64_t input_hash, NodeId node,
                                     const std::map<NodeId, size_t>& rows_out,
                                     const std::vector<Record>& rows) {
  std::string payload;
  PutU64(payload, workflow_hash);
  PutU64(payload, input_hash);
  PutU32(payload, static_cast<uint32_t>(node));
  PutRowsOut(payload, rows_out);
  PutRecords(payload, rows);
  return SealPayload(kCheckpointMagic, payload);
}

std::string SerializeCheckpoint(const Checkpoint& checkpoint) {
  return SerializeCheckpointParts(checkpoint.workflow_hash,
                                  checkpoint.input_hash, checkpoint.node,
                                  checkpoint.rows_out, checkpoint.rows);
}

StatusOr<Checkpoint> ParseCheckpoint(std::string_view bytes) {
  ETLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          UnsealPayload(bytes, kCheckpointMagic, "checkpoint"));
  BinaryReader reader(payload);
  Checkpoint checkpoint;
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.workflow_hash, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.input_hash, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint32_t node, reader.U32());
  checkpoint.node = static_cast<NodeId>(node);
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.rows_out, ReadRowsOut(reader));
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.rows, ReadRecords(reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("checkpoint: trailing content");
  }
  return checkpoint;
}

StatusOr<bool> WriteCheckpointFile(const std::string& path,
                                   const std::string& bytes, FaultSite site,
                                   bool planned, const RetryPolicy& retry,
                                   Rng& rng, uint64_t* retries) {
  auto write_attempt = [&]() -> Status {
    if (planned) ETLOPT_FAULT_HIT(FaultSite::kRecoveryPlaceCheckpoint);
    ETLOPT_FAULT_HIT(site);
    return WriteFileAtomic(path, bytes);
  };
  Status status =
      RetryWithBackoff(retry, rng, "checkpoint write", write_attempt, retries);
  if (IsInjectedCrash(status)) return status;
  return status.ok();
}

StatusOr<std::optional<std::string>> ReadCheckpointFile(
    const std::string& path, FaultSite site) {
  Status hook = FaultProbe(site);
  // A crash-point models the process dying here; any other injected
  // error just makes the checkpoint unreadable.
  if (IsInjectedCrash(hook)) return hook;
  if (!hook.ok()) return std::optional<std::string>();
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return std::optional<std::string>();
  return std::optional<std::string>(std::move(bytes).value());
}

namespace {

// Recovery as a node policy on the driver: loaded recovery points are
// served, nodes outside the need set are skipped, every computed node's
// step runs under the deadline and the retry policy, and every computed
// recovery-point node gets a checkpoint write. Execute() fills `need`
// and `loaded` before the driver runs.
struct RecoveryPolicy : NodePolicy {
  RecoveryPolicy(const Workflow& w, const RecoveryOptions& o)
      : workflow(w), options(o), rng(o.retry_seed) {}

  bool Skip(NodeId id) override {
    if (need.count(id) != 0) return false;
    if (!workflow.IsRecordSet(id)) ++stats.nodes_skipped;
    return true;
  }

  bool Serve(NodeId id, ExecutionResult& result,
             std::vector<Record>* rows) override {
    auto it = loaded.find(id);
    if (it == loaded.end()) return false;
    *rows = std::move(it->second.rows);
    stats.resumed = true;
    ++stats.checkpoints_loaded;
    stats.checkpoint_rows_read += rows->size();
    if (!workflow.IsRecordSet(id)) ++stats.nodes_skipped;
    // Fold the recovery point's rows_out bookkeeping in now (nodes
    // recomputed in this run win), so checkpoints written later in this
    // run snapshot complete state — a second crash must not lose the
    // counts of nodes this resume skipped.
    for (const auto& [node, count] : it->second.rows_out) {
      result.rows_out.emplace(node, count);
    }
    return true;
  }

  Status Attempt(NodeId id, const std::function<Status()>& step) override {
    if (options.deadline_millis != 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              start)
                .count() >= options.deadline_millis) {
      return Status::DeadlineExceeded(StrFormat(
          "recoverable execution exceeded its %lld ms deadline",
          static_cast<long long>(options.deadline_millis)));
    }
    ETLOPT_RETURN_NOT_OK(RetryWithBackoff(options.retry, rng,
                                          StrFormat("node %d", id).c_str(),
                                          step, &stats.retries));
    if (!workflow.IsRecordSet(id)) {
      ++stats.nodes_executed;
      ++stats.node_executions[id];
    }
    return Status::OK();
  }

  bool WantsRows(NodeId id) const override {
    return checkpointing && IsCheckpointNode(workflow, id,
                                             options.checkpoint_policy,
                                             plan_nodes);
  }

  Status OnComputed(NodeId id, const std::vector<Record>& rows,
                    const ExecutionResult& result) override {
    // Serialized once, straight from the flow — no row copy, and retries
    // rewrite the same bytes.
    ETLOPT_ASSIGN_OR_RETURN(
        bool written,
        WriteCheckpointFile(
            CheckpointPath(run_dir, id),
            SerializeCheckpointParts(workflow_hash, input_hash, id,
                                     result.rows_out, rows),
            FaultSite::kCheckpointWrite,
            options.checkpoint_policy == CheckpointPolicy::kRecoveryPlan,
            options.retry, rng, &stats.retries));
    if (written) {
      ++stats.checkpoints_written;
      stats.checkpoint_rows_written += rows.size();
    } else {
      // Checkpointing is best-effort: a run that cannot persist a
      // recovery point still completes, it just resumes from an earlier
      // point if it later crashes.
      ++stats.checkpoint_write_failures;
    }
    return Status::OK();
  }

  const Workflow& workflow;
  const RecoveryOptions& options;
  Rng rng;
  const Clock::time_point start = Clock::now();
  bool checkpointing = false;
  uint64_t workflow_hash = 0;
  uint64_t input_hash = 0;
  std::string run_dir;
  std::unordered_set<NodeId> plan_nodes;
  std::unordered_set<NodeId> need;
  std::unordered_map<NodeId, Checkpoint> loaded;
  RecoveryStats stats;
};

}  // namespace

RecoverableExecutor::RecoverableExecutor(RecoveryOptions options)
    : options_(std::move(options)) {}

std::string RecoverableExecutor::RunDir(uint64_t workflow_hash,
                                        uint64_t input_hash) const {
  return options_.checkpoint_dir +
         StrFormat("/run_%016llx_%016llx",
                   static_cast<unsigned long long>(workflow_hash),
                   static_cast<unsigned long long>(input_hash));
}

StatusOr<ExecutionResult> RecoverableExecutor::Execute(
    const Workflow& workflow, const ExecutionInput& input,
    RecoveryStats* stats_out) {
  ETLOPT_RETURN_NOT_OK(ValidateRecoveryOptions(options_));
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  if (stats_out != nullptr) *stats_out = RecoveryStats{};
  RecoveryPolicy policy(workflow, options_);
  policy.checkpointing =
      !options_.checkpoint_dir.empty() &&
      options_.checkpoint_policy != CheckpointPolicy::kNone;
  policy.workflow_hash = workflow.SignatureHash();
  policy.input_hash = ExecutionInputFingerprint(input);
  policy.run_dir = RunDir(policy.workflow_hash, policy.input_hash);
  if (options_.checkpoint_policy == CheckpointPolicy::kRecoveryPlan) {
    policy.plan_nodes = ResolvePlanNodes(workflow, options_.recovery_plan);
  }
  const std::string& run_dir = policy.run_dir;
  std::unordered_set<NodeId>& need = policy.need;
  std::unordered_map<NodeId, Checkpoint>& loaded = policy.loaded;

  const std::vector<NodeId>& topo = workflow.TopoOrder();

  // Decide which nodes must be produced and lazily load the recovery
  // points that decision rests on. Targets are always needed; a needed
  // node without a recovery point needs all its providers. Only *needed*
  // checkpoint files are read and parsed — a resume that can serve from
  // a shallow frontier must not pay for deserializing every file a
  // crashed run left behind. A needed checkpoint that fails to read or
  // validate is rejected (its node gets recomputed), which can widen the
  // needed set, so the two steps iterate until stable; each round either
  // finishes or permanently rejects a file, so the loop terminates.
  std::unordered_set<NodeId> on_disk;
  if (policy.checkpointing) {
    for (NodeId id : topo) {
      if (!IsCheckpointNode(workflow, id, options_.checkpoint_policy,
                            policy.plan_nodes)) {
        continue;
      }
      std::error_code ec;
      if (fs::exists(CheckpointPath(run_dir, id), ec) && !ec) {
        on_disk.insert(id);
      }
    }
  }
  for (bool stable = false; !stable;) {
    stable = true;
    need.clear();
    for (NodeId id : topo) {
      if (workflow.Consumers(id).empty()) need.insert(id);
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      NodeId id = *it;
      if (need.count(id) == 0 || on_disk.count(id) != 0) continue;
      for (NodeId p : workflow.Providers(id)) need.insert(p);
    }
    for (NodeId id : topo) {
      if (on_disk.count(id) == 0 || need.count(id) == 0 ||
          loaded.count(id) != 0) {
        continue;
      }
      auto reject = [&]() {
        // Unreadable, truncated, bit-flipped, or from a different run:
        // never resumed from. The node is recomputed and the file
        // overwritten.
        on_disk.erase(id);
        ++policy.stats.checkpoints_rejected;
        stable = false;
      };
      ETLOPT_ASSIGN_OR_RETURN(
          std::optional<std::string> bytes,
          ReadCheckpointFile(CheckpointPath(run_dir, id),
                             FaultSite::kCheckpointRead));
      if (!bytes.has_value()) {
        reject();
        break;
      }
      StatusOr<Checkpoint> checkpoint = ParseCheckpoint(*bytes);
      if (!checkpoint.ok() ||
          checkpoint->workflow_hash != policy.workflow_hash ||
          checkpoint->input_hash != policy.input_hash ||
          checkpoint->node != id) {
        reject();
        break;
      }
      loaded.emplace(id, std::move(checkpoint).value());
    }
  }

  // Execute: recovery points substitute for whole subgraphs.
  SerialStrategy strategy(input.context);
  StatusOr<ExecutionResult> result =
      DriveNodes(workflow, input, strategy, policy);
  if (result.ok() && policy.checkpointing) {
    if (options_.remove_checkpoints_on_success) {
      std::error_code ec;
      fs::remove_all(run_dir, ec);  // best-effort cleanup
    }
    // Bounded retention of stale sibling run_* directories (crashed runs
    // over other workflows/inputs); GC failures never fail the run.
    policy.stats.stale_runs_pruned = PruneOldest(
        options_.checkpoint_dir, run_dir, options_.max_retained_runs,
        [](const fs::directory_entry& entry) {
          std::error_code ec;
          return entry.is_directory(ec) && !ec &&
                 StartsWith(entry.path().filename().string(), "run_");
        });
  }
  if (stats_out != nullptr) *stats_out = policy.stats;
  return result;
}

Status RecoverableExecutor::ClearCheckpoints(const Workflow& workflow,
                                             const ExecutionInput& input)
    const {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  if (!workflow.fresh()) {
    return Status::FailedPrecondition(
        "workflow must pass Refresh() before checkpoint lookup");
  }
  const std::string run_dir =
      RunDir(workflow.SignatureHash(), ExecutionInputFingerprint(input));
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  if (ec) {
    return Status::IOError("cannot remove checkpoints: " + run_dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace etlopt
