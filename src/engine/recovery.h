// RecoverableExecutor: fault-tolerant workflow execution.
//
// The nightly ETL window makes a mid-run failure that forces a full
// restart the single most expensive event in production. This layer
// wraps the engines with the failure story:
//
//  * per-activity retry with exponential, jittered backoff absorbs
//    transient failures (Unavailable / IOError — what flaky storage and
//    the fault injector produce);
//  * recovery points: at materialization boundaries (staging/target
//    recordsets — optionally every node) the data flow is checkpointed
//    to disk in a checksummed binary format, written atomically
//    (temp file + rename). A crashed run re-executed over the same
//    workflow and input resumes from the persisted checkpoints instead
//    of re-extracting;
//  * a wall-clock deadline for the whole run.
//
// The headline property (enforced by the RecoveryPropertyTest cells of
// tests/contract/contract_test.cc and the nightly fault sweep): under
// ANY injected fault schedule, a RecoverableExecutor run either returns
// output byte-identical to the fault-free ExecuteWorkflow run, or a
// clean non-OK Status — never corrupt or partial output. Checkpoints are keyed by (workflow
// signature hash, input fingerprint) and verified by checksum on read;
// anything stale, truncated or bit-flipped is rejected and recomputed.

#ifndef ETLOPT_ENGINE_RECOVERY_H_
#define ETLOPT_ENGINE_RECOVERY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "cost/reliability_model.h"
#include "engine/executor.h"
#include "fault/fault_injector.h"

namespace etlopt {

/// Where recovery points are taken.
enum class CheckpointPolicy : int {
  /// No checkpoints (retry + deadline only).
  kNone = 0,
  /// Staging and target recordset nodes — the paper's materialization
  /// boundaries.
  kBoundaries = 1,
  /// Every node's output (the materializing engine materializes every
  /// edge anyway); maximizes resumability at the cost of checkpoint I/O.
  kAllNodes = 2,
  /// Exactly the nodes the optimizer chose (RecoveryOptions::recovery_plan
  /// — a reliability-aware search's RecoveryPointPlan, matched by
  /// priority label).
  kRecoveryPlan = 3,
};

struct RecoveryOptions {
  /// Directory for recovery points. Empty disables checkpointing; it is
  /// created if missing.
  std::string checkpoint_dir;
  CheckpointPolicy checkpoint_policy = CheckpointPolicy::kBoundaries;
  /// Per-node retry of transient failures.
  RetryPolicy retry;
  /// Wall-clock budget for one Execute() call, retries and backoff
  /// included. 0 = unlimited; negative is rejected.
  int64_t deadline_millis = 0;
  /// Seed for backoff jitter (reproducible retry timing).
  uint64_t retry_seed = 42;
  /// Remove this run's checkpoints after a successful Execute().
  bool remove_checkpoints_on_success = true;
  /// The optimizer's recovery-point decision, honored when
  /// checkpoint_policy == kRecoveryPlan: checkpoints are taken at exactly
  /// the activity nodes whose priority labels the plan names (labels are
  /// stable across transitions and serialization; raw NodeIds are not).
  RecoveryPointPlan recovery_plan;
  /// Bounded retention for stale sibling run directories (crashed runs
  /// over other workflows/inputs that were never resumed): after a
  /// successful Execute(), only the `max_retained_runs` most recently
  /// written stale run_* directories under checkpoint_dir survive, oldest
  /// deleted first. The current run's directory is never counted against
  /// the cap (remove_checkpoints_on_success governs it).
  size_t max_retained_runs = 8;
};

/// Rejects nonsensical configurations — zero/negative backoff,
/// max-attempts or deadline values — with InvalidArgument (mirrors
/// ValidateSearchOptions; Execute() calls this before any work).
Status ValidateRecoveryOptions(const RecoveryOptions& options);

/// What one Execute() did, for observability and tests.
struct RecoveryStats {
  uint64_t retries = 0;               // node re-attempts after transient errors
  size_t checkpoints_written = 0;
  size_t checkpoints_loaded = 0;      // valid recovery points consumed
  size_t checkpoints_rejected = 0;    // present but stale/corrupt/unreadable
  size_t checkpoint_write_failures = 0;  // best-effort writes that failed
  size_t nodes_executed = 0;
  size_t nodes_skipped = 0;           // served from recovery points
  bool resumed = false;               // at least one checkpoint consumed
  size_t stale_runs_pruned = 0;       // sibling run dirs GC'd on success
  /// Work-unit ledger for recovery-cost measurement (the chaos-soak
  /// bench prices redone work with the cost model): executions per
  /// activity node across this call, and checkpoint rows moved.
  std::map<NodeId, uint64_t> node_executions;
  uint64_t checkpoint_rows_written = 0;
  uint64_t checkpoint_rows_read = 0;
};

/// One persisted recovery point: the data flow at `node`, plus the
/// rows_out bookkeeping of everything executed before it (so a resumed
/// run reports the identical ExecutionResult). Exposed for the format
/// tests; production code goes through RecoverableExecutor.
struct Checkpoint {
  uint64_t workflow_hash = 0;  // Workflow::SignatureHash() of the run
  uint64_t input_hash = 0;     // ExecutionInputFingerprint of the run
  NodeId node = kInvalidNode;
  std::vector<Record> rows;
  std::map<NodeId, size_t> rows_out;
};

/// Fingerprint of an execution input (source data + lookup tables):
/// equal inputs yield equal fingerprints, so checkpoints from a run over
/// different data are never resumed from. Each source and table hashes
/// its rows once and keeps the result (FingerprintSegment), so a call on
/// an input fingerprinted before costs one step per name.
uint64_t ExecutionInputFingerprint(const ExecutionInput& input);

/// Checksummed binary encoding ("ETLCKPT1" magic, length-prefixed rows,
/// doubles as bit patterns, trailing FNV-64 over the payload). The round
/// trip is exact; any truncation or bit flip fails ParseCheckpoint with
/// a clean Status.
std::string SerializeCheckpoint(const Checkpoint& checkpoint);
StatusOr<Checkpoint> ParseCheckpoint(std::string_view bytes);

/// Checkpoint-file I/O shared by the recoverable and stream executors.
/// Writes are best-effort: under RetryWithBackoff, each attempt hits
/// FaultSite::kRecoveryPlaceCheckpoint when `planned` (an optimizer-placed
/// checkpoint), then `site`, then WriteFileAtomic. Returns whether the
/// file was written; only an injected crash fails the call.
StatusOr<bool> WriteCheckpointFile(const std::string& path,
                                   const std::string& bytes, FaultSite site,
                                   bool planned, const RetryPolicy& retry,
                                   Rng& rng, uint64_t* retries);

/// Hits `site`, then reads the file. Returns its bytes, or nullopt when
/// the file must be rejected (unreadable, or an injected error at the
/// site); only an injected crash fails the call.
StatusOr<std::optional<std::string>> ReadCheckpointFile(
    const std::string& path, FaultSite site);

class RecoverableExecutor {
 public:
  explicit RecoverableExecutor(RecoveryOptions options = {});

  /// Runs `workflow` (must be fresh) over `input` with retry, deadline
  /// and recovery points. On success the result is byte-identical to
  /// ExecuteWorkflow(workflow, input) — including when the run resumed
  /// from checkpoints of a previously crashed attempt.
  StatusOr<ExecutionResult> Execute(const Workflow& workflow,
                                    const ExecutionInput& input,
                                    RecoveryStats* stats = nullptr);

  /// Removes the recovery points of (workflow, input), if any.
  Status ClearCheckpoints(const Workflow& workflow,
                          const ExecutionInput& input) const;

  const RecoveryOptions& options() const { return options_; }

 private:
  std::string RunDir(uint64_t workflow_hash, uint64_t input_hash) const;

  RecoveryOptions options_;
};

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_RECOVERY_H_
