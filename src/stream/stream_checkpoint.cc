#include "stream/stream_checkpoint.h"

#include "common/macros.h"
#include "engine/recovery.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

constexpr std::string_view kStreamMagic = "ETLSTRM1";

}  // namespace

std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint) {
  std::string payload;
  PutU64(payload, checkpoint.workflow_hash);
  PutU64(payload, checkpoint.capture_fingerprint);
  PutU64(payload, checkpoint.next_batch);
  PutU64(payload, checkpoint.batch_count);
  PutRowsOut(payload, checkpoint.rows_out);
  PutU32(payload, static_cast<uint32_t>(checkpoint.target_data.size()));
  for (const auto& [name, rows] : checkpoint.target_data) {
    PutString(payload, name);
    PutRecords(payload, rows);
  }
  PutU32(payload, static_cast<uint32_t>(checkpoint.state_blobs.size()));
  for (const auto& [key, blob] : checkpoint.state_blobs) {
    PutString(payload, key);
    PutString(payload, blob);
  }

  return SealPayload(kStreamMagic, payload);
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
