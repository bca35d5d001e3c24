// Stream-state checkpoints (magic ETLSTRM1): the exactly-once frontier.
//
// One file per (workflow signature x capture fingerprint) run, rewritten
// atomically after every committed batch: the next batch to process,
// the accumulated targets and rows_out bookkeeping, and every stateful
// operator's incremental state as an opaque blob. A crash mid-stream
// resumes by restoring the file and seeking the source to next_batch —
// every batch is applied to the persistent state exactly once.
//
// Same framing discipline as the ETLCKPT1 recovery checkpoints:
// length-prefixed payload with a trailing FNV-64 checksum, written via
// temp-file + rename; a reader rejects (rather than trusts) any file
// that is truncated, bit-flipped, or from a different run.

#ifndef ETLOPT_STREAM_STREAM_CHECKPOINT_H_
#define ETLOPT_STREAM_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/executor.h"

namespace etlopt {

struct StreamCheckpoint {
  /// Workflow::SignatureHash of the streamed workflow.
  uint64_t workflow_hash = 0;
  /// MicroBatchSource::CaptureFingerprint (capture x batching knobs).
  uint64_t capture_fingerprint = 0;
  /// The batch frontier: the next batch index to process.
  uint64_t next_batch = 0;
  /// Total batches of the run, as a paranoia cross-check.
  uint64_t batch_count = 0;
  std::map<NodeId, size_t> rows_out;
  std::map<std::string, std::vector<Record>> target_data;
  /// Per-operator incremental state, keyed by a stable slot name
  /// ("n<node>" for node state, "n<node>.p<port>" for port histories).
  std::map<std::string, std::string> state_blobs;
};

std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint);

/// Appends one state blob's bytes to the payload.
using StateBlobWriter = std::function<void(std::string& out)>;

/// Same bytes as SerializeStreamCheckpoint, but from borrowed pieces: the
/// running stream serializes its targets in place and writes each
/// operator's state straight into the payload instead of copying both
/// into a StreamCheckpoint first.
std::string SerializeStreamCheckpointParts(
    uint64_t workflow_hash, uint64_t capture_fingerprint, uint64_t next_batch,
    uint64_t batch_count, const std::map<NodeId, size_t>& rows_out,
    const std::map<std::string, const std::vector<Record>*>& target_data,
    const std::map<std::string, StateBlobWriter>& state_blobs);

StatusOr<StreamCheckpoint> ParseStreamCheckpoint(std::string_view bytes);

}  // namespace etlopt

#endif  // ETLOPT_STREAM_STREAM_CHECKPOINT_H_
