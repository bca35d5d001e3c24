// MicroBatchSource: slices a captured ExecutionInput into a bounded
// sequence of micro-batches (DOD-ETL's on-demand ingestion model).
//
// Two slicing modes:
//  * row slices (default): every source is cut into `num_batches`
//    contiguous near-equal slices, so concatenating the batches
//    reproduces the capture byte-identically per source;
//  * event-time windows: every source must carry an int64 event-time
//    attribute; batch k holds the rows whose timestamp falls in the
//    k-th fixed-width window of the capture's global time span, in
//    capture order (a stable partition).
//
// Replay clock: in event-time mode with `paced` set, Next() sleeps so
// that batch deliveries reproduce the capture's event-time gaps
// compressed by `rate_multiplier` (a 2x multiplier replays a 10-second
// capture in ~5 wall seconds).

#ifndef ETLOPT_STREAM_MICRO_BATCH_H_
#define ETLOPT_STREAM_MICRO_BATCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "records/recordset.h"
#include "stream/stream_options.h"

namespace etlopt {

/// One micro-batch: the new rows per source (the delta), plus event-time
/// bounds when the capture carries timestamps.
struct MicroBatch {
  size_t index = 0;
  std::map<std::string, std::vector<Record>> source_rows;
  /// Min/max event timestamp across the batch's rows; 0/0 for row-slice
  /// mode or an empty batch.
  int64_t min_event_time = 0;
  int64_t max_event_time = 0;
  size_t total_rows() const {
    size_t n = 0;
    for (const auto& [name, rows] : source_rows) n += rows.size();
    return n;
  }
};

class MicroBatchSource {
 public:
  /// Validates options, checks the capture against the workflow's source
  /// schemas (arity; event-time attribute presence/type/non-null in
  /// event mode), and precomputes the batch boundaries.
  static StatusOr<MicroBatchSource> Make(const Workflow& workflow,
                                         const ExecutionInput& capture,
                                         const StreamOptions& options);

  size_t batch_count() const { return batch_count_; }
  size_t cursor() const { return cursor_; }
  bool Exhausted() const { return cursor_ >= batch_count_; }

  /// Moves the cursor (0 <= batch <= batch_count). Re-anchors the replay
  /// clock so the batch at the new cursor is due immediately.
  Status Seek(size_t batch);

  /// Delivers the batch at the cursor and advances it. Crosses the
  /// `stream.source_next` fault site; when paced, sleeps until the
  /// batch's replay due time first. OutOfRange once exhausted.
  StatusOr<MicroBatch> Next();

  /// Fingerprint of (capture contents x batching knobs): two sources
  /// agree iff they deliver the same batch sequence from the same data.
  /// Keys the stream checkpoint together with Workflow::SignatureHash.
  uint64_t CaptureFingerprint() const { return fingerprint_; }

  /// Make(workflow, capture, options)->CaptureFingerprint(), with the
  /// same Status for an invalid capture, without slicing the capture.
  static StatusOr<uint64_t> FingerprintOf(const Workflow& workflow,
                                          const ExecutionInput& capture,
                                          const StreamOptions& options);

  /// The capture's lookup tables, unchanged.
  const ExecutionContext& context() const { return context_; }

 private:
  MicroBatchSource() = default;

  /// Wall-clock offset at which batch `b` is due (paced mode).
  std::chrono::microseconds DueOffset(size_t b) const;

  // Per source: the capture's rows, shared with it rather than copied,
  // and in event mode each batch's row indices in capture order. A
  // row-slice batch is a contiguous range, computed in Next. No row is
  // copied before Next.
  struct SourceBatches {
    SourceTable rows;
    std::vector<std::vector<size_t>> batch_rows;  // event mode only
  };
  std::map<std::string, SourceBatches> sources_;
  // Per batch: min/max event timestamp (event mode only).
  std::vector<int64_t> batch_min_ts_;
  std::vector<int64_t> batch_max_ts_;
  int64_t stream_min_ts_ = 0;
  ExecutionContext context_;
  StreamOptions options_;
  size_t batch_count_ = 0;
  size_t cursor_ = 0;
  uint64_t fingerprint_ = 0;
  bool event_mode_ = false;
  // Replay clock anchor: wall time at which the batch at the last Seek
  // cursor became due.
  std::chrono::steady_clock::time_point clock_anchor_;
  size_t anchor_batch_ = 0;
};

/// Workload-generator bridge: scans `recordsets` and binds their
/// contents (plus `lookups`) into a capture ready for MicroBatchSource.
StatusOr<ExecutionInput> CaptureFromRecordSets(
    const std::vector<const RecordSet*>& recordsets,
    const ExecutionContext& lookups = {});

}  // namespace etlopt

#endif  // ETLOPT_STREAM_MICRO_BATCH_H_
