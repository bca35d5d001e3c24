#include "stream/stream_checkpoint.h"

#include "common/macros.h"
#include "engine/recovery.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

constexpr std::string_view kStreamMagic = "ETLSTRM1";

}  // namespace

std::string SerializeStreamCheckpointParts(
    uint64_t workflow_hash, uint64_t capture_fingerprint, uint64_t next_batch,
    uint64_t batch_count, const std::map<NodeId, size_t>& rows_out,
    const std::map<std::string, const std::vector<Record>*>& target_data,
    const std::map<std::string, StateBlobWriter>& state_blobs) {
  std::string payload;
  PutU64(payload, workflow_hash);
  PutU64(payload, capture_fingerprint);
  PutU64(payload, next_batch);
  PutU64(payload, batch_count);
  PutRowsOut(payload, rows_out);
  PutU32(payload, static_cast<uint32_t>(target_data.size()));
  for (const auto& [name, rows] : target_data) {
    PutString(payload, name);
    PutRecords(payload, *rows);
  }
  PutU32(payload, static_cast<uint32_t>(state_blobs.size()));
  for (const auto& [key, write] : state_blobs) {
    PutString(payload, key);
    // PutString's framing, with the length filled in after the writer.
    const size_t at = payload.size();
    PutU32(payload, 0);
    write(payload);
    const auto size = static_cast<uint32_t>(payload.size() - at - 4);
    for (int i = 0; i < 4; ++i) {
      payload[at + i] = static_cast<char>(size >> (8 * i));
    }
  }
  return SealPayload(kStreamMagic, payload);
}

std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint) {
  std::map<std::string, const std::vector<Record>*> targets;
  for (const auto& [name, rows] : checkpoint.target_data) {
    targets.emplace(name, &rows);
  }
  std::map<std::string, StateBlobWriter> blobs;
  for (const auto& [key, blob] : checkpoint.state_blobs) {
    blobs.emplace(key, [&blob](std::string& out) { out += blob; });
  }
  return SerializeStreamCheckpointParts(
      checkpoint.workflow_hash, checkpoint.capture_fingerprint,
      checkpoint.next_batch, checkpoint.batch_count, checkpoint.rows_out,
      targets, blobs);
}

StatusOr<StreamCheckpoint> ParseStreamCheckpoint(std::string_view bytes) {
  ETLOPT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnsealPayload(bytes, kStreamMagic, "stream checkpoint"));
  BinaryReader reader(payload);
  StreamCheckpoint checkpoint;
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.workflow_hash, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.capture_fingerprint, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.next_batch, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.batch_count, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(checkpoint.rows_out, ReadRowsOut(reader));
  ETLOPT_ASSIGN_OR_RETURN(uint32_t target_count, reader.U32());
  for (uint32_t i = 0; i < target_count; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(std::string name, reader.String());
    ETLOPT_ASSIGN_OR_RETURN(checkpoint.target_data[name],
                            ReadRecords(reader));
  }
  ETLOPT_ASSIGN_OR_RETURN(uint32_t blob_count, reader.U32());
  for (uint32_t i = 0; i < blob_count; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(std::string key, reader.String());
    ETLOPT_ASSIGN_OR_RETURN(std::string blob, reader.String());
    checkpoint.state_blobs.emplace(std::move(key), std::move(blob));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("stream checkpoint: trailing content");
  }
  return checkpoint;
}

}  // namespace etlopt
