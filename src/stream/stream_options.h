// Knobs for the streaming micro-batch subsystem (ISSUE 6).
//
// Validation mirrors ValidateSearchOptions / ValidateRetryPolicy: every
// entry point that takes a StreamOptions validates it before doing any
// work, and each rejection names the offending knob.

#ifndef ETLOPT_STREAM_STREAM_OPTIONS_H_
#define ETLOPT_STREAM_STREAM_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/retry.h"
#include "common/status.h"
#include "cost/reliability_model.h"

namespace etlopt {

struct StreamOptions {
  // --- Batching ---
  /// Row-slice mode: the capture is cut into this many contiguous,
  /// near-equal row slices per source. Must be >= 1.
  int64_t num_batches = 8;
  /// When > 0, overrides num_batches: slices hold at most this many rows
  /// of the largest source. Negative is rejected.
  int64_t batch_rows = 0;
  /// When non-empty, switches to event-time mode: every source schema
  /// must carry an int64 attribute of this name, and batches are
  /// fixed-width windows of that timestamp.
  std::string event_time_column;
  /// Window width (event-time units) in event-time mode. Must be > 0.
  int64_t window_millis = 1000;

  // --- Replay clock (DOD-ETL style capture replay) ---
  /// Event time advances this many times faster than the wall clock when
  /// pacing. Must be > 0 and finite.
  double rate_multiplier = 1.0;
  /// When true (event-time mode only), MicroBatchSource::Next sleeps so
  /// batch deliveries reproduce the capture's event-time gaps scaled by
  /// rate_multiplier.
  bool paced = false;

  // --- Exactly-once checkpointing ---
  /// Directory for stream-state checkpoints; empty disables them.
  std::string checkpoint_dir;
  /// A checkpoint is written after every Nth committed batch (and always
  /// after the last). Must be >= 1.
  int64_t checkpoint_every_batches = 1;
  /// Remove the run's checkpoint once the stream completes.
  bool remove_checkpoints_on_success = true;
  /// The optimizer's reliability decision. When enabled, the checkpoint
  /// cadence is derived from it (Young's approximation over the plan's
  /// per-batch cost and checkpoint unit cost — see
  /// PlannedStreamCheckpointInterval), overriding
  /// checkpoint_every_batches; plan-driven checkpoint writes also hit
  /// the recovery.place_checkpoint fault site.
  RecoveryPointPlan recovery_plan;
  /// Bounded retention for stale sibling stream_*.ckpt files (crashed
  /// runs over other workflows/captures that were never resumed): after
  /// a successful Run(), only the `max_retained_checkpoints` most
  /// recently written stale files under checkpoint_dir survive, oldest
  /// deleted first. The current run's file is never counted against the
  /// cap.
  size_t max_retained_checkpoints = 8;

  // --- Retry ---
  /// Per-batch retry policy for transient faults; crash-points are never
  /// absorbed.
  RetryPolicy retry;
  uint64_t retry_seed = 42;
};

/// Rejects nonsensical option combinations with InvalidArgument naming
/// the knob.
Status ValidateStreamOptions(const StreamOptions& options);

}  // namespace etlopt

#endif  // ETLOPT_STREAM_STREAM_OPTIONS_H_
