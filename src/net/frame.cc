#include "src/net/frame.h"

#include <cstring>

#include "src/sketch/serialize.h"

namespace joinmi {
namespace net {

namespace {

// The validated prefix of every header: magic + version + type + length.
// The request id that completes the header carries no constraints, so a
// bad prefix is rejected before those 8 bytes are even read.
constexpr size_t kHeaderPrefixSize = 4 + 4 + 1 + 4;

struct FrameHeader {
  FrameType type;
  uint32_t payload_len;
};

bool IsKnownFrameType(uint8_t type) {
  // Tags 3 and 4 are the retired per-variant search exchange.
  return type >= static_cast<uint8_t>(FrameType::kHandshakeRequest) &&
         type <= static_cast<uint8_t>(FrameType::kReloadResponse) &&
         type != 3 && type != 4;
}

// Validates everything knowable from the header prefix alone — magic,
// version, type tag, payload bound — shared by the buffer, socket, and
// incremental decode paths so they cannot drift.
Result<FrameHeader> ParseHeader(const char (&raw)[kHeaderPrefixSize]) {
  if (std::memcmp(raw, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::IOError("bad JMRP frame magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, raw + 4, sizeof(version));
  if (version == 1) {
    return Status::IOError(
        "JMRP v1 is no longer served; this build speaks only JMRP v2");
  }
  if (version != kProtocolVersion) {
    return Status::IOError("unsupported JMRP protocol version " +
                           std::to_string(version) +
                           " (this build speaks only JMRP v2)");
  }
  const uint8_t type = static_cast<uint8_t>(raw[8]);
  if (!IsKnownFrameType(type)) {
    return Status::IOError("unknown JMRP frame type " + std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  std::memcpy(&header.payload_len, raw + 9, sizeof(header.payload_len));
  if (header.payload_len > kMaxFramePayload) {
    return Status::IOError(
        "JMRP frame payload length " + std::to_string(header.payload_len) +
        " exceeds the " + std::to_string(kMaxFramePayload) + "-byte bound");
  }
  return header;
}

}  // namespace

const char* FrameTypeToString(FrameType type) {
  switch (type) {
    case FrameType::kHandshakeRequest:
      return "handshake_request";
    case FrameType::kHandshakeResponse:
      return "handshake_response";
    case FrameType::kHealthRequest:
      return "health_request";
    case FrameType::kHealthResponse:
      return "health_response";
    case FrameType::kError:
      return "error";
    case FrameType::kSketchUploadRequest:
      return "sketch_upload_request";
    case FrameType::kSketchUploadResponse:
      return "sketch_upload_response";
    case FrameType::kBatchSearchRequest:
      return "batch_search_request";
    case FrameType::kBatchSearchResponse:
      return "batch_search_response";
    case FrameType::kStatsRequest:
      return "stats_request";
    case FrameType::kStatsResponse:
      return "stats_response";
    case FrameType::kReloadRequest:
      return "reload_request";
    case FrameType::kReloadResponse:
      return "reload_response";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  wire::AppendRaw(&out, kFrameMagic, sizeof(kFrameMagic));
  wire::AppendPod<uint32_t>(&out, kProtocolVersion);
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(type));
  wire::AppendPod<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  wire::AppendPod<uint64_t>(&out, request_id);
  wire::AppendRaw(&out, payload.data(), payload.size());
  return out;
}

Result<Frame> DecodeFrame(const std::string& buffer) {
  if (buffer.size() < kHeaderPrefixSize) {
    return Status::IOError("truncated JMRP frame header");
  }
  char raw[kHeaderPrefixSize];
  std::memcpy(raw, buffer.data(), kHeaderPrefixSize);
  JOINMI_ASSIGN_OR_RETURN(FrameHeader header, ParseHeader(raw));
  if (buffer.size() < kFrameHeaderSize) {
    return Status::IOError("truncated JMRP frame header (request id)");
  }
  Frame frame;
  frame.type = header.type;
  std::memcpy(&frame.request_id, buffer.data() + kHeaderPrefixSize,
              sizeof(frame.request_id));
  if (buffer.size() - kFrameHeaderSize < header.payload_len) {
    return Status::IOError("truncated JMRP frame payload");
  }
  if (buffer.size() - kFrameHeaderSize > header.payload_len) {
    return Status::IOError("trailing bytes after JMRP frame payload");
  }
  frame.payload = buffer.substr(kFrameHeaderSize);
  return frame;
}

Status SendFrame(Socket* socket, FrameType type, uint64_t request_id,
                 const std::string& payload, size_t* bytes_written) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "refusing to send a JMRP frame with a " +
        std::to_string(payload.size()) + "-byte payload (bound " +
        std::to_string(kMaxFramePayload) + ")");
  }
  const std::string encoded = EncodeFrame(type, request_id, payload);
  return socket->WriteAll(encoded.data(), encoded.size(), bytes_written);
}

Result<Frame> RecvFrame(Socket* socket) {
  char raw[kHeaderPrefixSize];
  JOINMI_RETURN_NOT_OK(socket->ReadExact(raw, sizeof(raw)));
  JOINMI_ASSIGN_OR_RETURN(FrameHeader header, ParseHeader(raw));
  Frame frame;
  frame.type = header.type;
  JOINMI_RETURN_NOT_OK(socket->ReadExact(
      reinterpret_cast<char*>(&frame.request_id), sizeof(frame.request_id)));
  frame.payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    JOINMI_RETURN_NOT_OK(
        socket->ReadExact(&frame.payload[0], header.payload_len));
  }
  return frame;
}

void FrameAssembler::Feed(const char* data, size_t len) {
  // Reclaim consumed prefix before growing; keeps the buffer bounded by
  // one partial frame plus whatever the last read returned.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 4096) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, len);
}

Result<bool> FrameAssembler::Next(Frame* out) {
  if (!poisoned_.ok()) return poisoned_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderPrefixSize) return false;
  char raw[kHeaderPrefixSize];
  std::memcpy(raw, buffer_.data() + consumed_, kHeaderPrefixSize);
  auto header = ParseHeader(raw);
  if (!header.ok()) {
    poisoned_ = header.status();
    return poisoned_;
  }
  if (available < kFrameHeaderSize + header->payload_len) return false;
  out->type = header->type;
  std::memcpy(&out->request_id,
              buffer_.data() + consumed_ + kHeaderPrefixSize,
              sizeof(out->request_id));
  out->payload.assign(buffer_, consumed_ + kFrameHeaderSize,
                      header->payload_len);
  consumed_ += kFrameHeaderSize + header->payload_len;
  return true;
}

}  // namespace net
}  // namespace joinmi
