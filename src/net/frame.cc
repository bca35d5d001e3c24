#include "net/frame.h"

#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

// Checksum over type byte + payload: a flipped type byte is caught just
// like a flipped payload byte.
uint64_t FrameChecksum(uint8_t type, std::string_view payload) {
  char type_byte = static_cast<char>(type);
  uint64_t seed = Fnv1a64(std::string_view(&type_byte, 1));
  return Fnv1a64(payload, seed);
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kOptimizeRequest:
    case FrameType::kStatsRequest:
    case FrameType::kSavePlansRequest:
    case FrameType::kHealthRequest:
    case FrameType::kOptimizeResponse:
    case FrameType::kStatsResponse:
    case FrameType::kSavePlansResponse:
    case FrameType::kHealthResponse:
    case FrameType::kErrorResponse:
      return true;
  }
  return false;
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out(kNetMagic, sizeof(kNetMagic));
  out.push_back(static_cast<char>(type));
  PutU64(out, payload.size());
  out += payload;
  PutU64(out, FrameChecksum(static_cast<uint8_t>(type), payload));
  return out;
}

StatusOr<Frame> DecodeFrame(std::string_view bytes, size_t max_frame_bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameChecksumBytes) {
    return Status::InvalidArgument("net: truncated frame header");
  }
  if (std::memcmp(bytes.data(), kNetMagic, sizeof(kNetMagic)) != 0) {
    return Status::InvalidArgument("net: bad frame magic");
  }
  BinaryReader reader(bytes.substr(sizeof(kNetMagic)));
  ETLOPT_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument(
        StrFormat("net: unknown frame type %u", static_cast<unsigned>(type)));
  }
  ETLOPT_ASSIGN_OR_RETURN(uint64_t payload_size, reader.U64());
  if (payload_size > max_frame_bytes) {
    return Status::InvalidArgument(StrFormat(
        "net: frame payload of %llu bytes exceeds the %llu-byte cap",
        static_cast<unsigned long long>(payload_size),
        static_cast<unsigned long long>(max_frame_bytes)));
  }
  if (reader.remaining() != payload_size + kFrameChecksumBytes) {
    return Status::InvalidArgument("net: frame length mismatch (truncated)");
  }
  ETLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          reader.Bytes(payload_size));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t recorded, reader.U64());
  if (FrameChecksum(type, payload) != recorded) {
    return Status::InvalidArgument("net: frame checksum mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload = std::string(payload);
  return frame;
}

Status WriteFrame(Socket& socket, FrameType type, std::string_view payload) {
  return socket.WriteFully(EncodeFrame(type, payload));
}

StatusOr<Frame> ReadFrame(Socket& socket, size_t max_frame_bytes) {
  std::string header;
  ETLOPT_RETURN_NOT_OK(socket.ReadFully(header, kFrameHeaderBytes));
  if (std::memcmp(header.data(), kNetMagic, sizeof(kNetMagic)) != 0) {
    return Status::InvalidArgument("net: bad frame magic");
  }
  BinaryReader reader(
      std::string_view(header).substr(sizeof(kNetMagic)));
  ETLOPT_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument(
        StrFormat("net: unknown frame type %u", static_cast<unsigned>(type)));
  }
  ETLOPT_ASSIGN_OR_RETURN(uint64_t payload_size, reader.U64());
  // The cap gates the allocation: an adversarial length prefix cannot
  // balloon memory, it just kills the connection with a clean error.
  if (payload_size > max_frame_bytes) {
    return Status::InvalidArgument(StrFormat(
        "net: frame payload of %llu bytes exceeds the %llu-byte cap",
        static_cast<unsigned long long>(payload_size),
        static_cast<unsigned long long>(max_frame_bytes)));
  }
  std::string body;
  ETLOPT_RETURN_NOT_OK(
      socket.ReadFully(body, payload_size + kFrameChecksumBytes));
  BinaryReader body_reader(body);
  ETLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          body_reader.Bytes(payload_size));
  ETLOPT_ASSIGN_OR_RETURN(uint64_t recorded, body_reader.U64());
  if (FrameChecksum(type, payload) != recorded) {
    return Status::InvalidArgument("net: frame checksum mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload = std::string(payload);
  return frame;
}

}  // namespace etlopt
