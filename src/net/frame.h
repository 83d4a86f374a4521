// JMRP ("JoinMI RPC") framing: every message on a shard-serving connection
// is one length-prefixed, version-tagged frame with one header layout:
//
//   magic "JMRP" | u32 version=3 | u8 frame_type | u32 payload_len
//   | u64 request_id | payload_len bytes of payload
//
// little-endian, built on the same wire:: primitives as the sketch and
// index formats. The frame layer knows nothing about payload contents —
// typed message encode/decode lives in src/discovery/rpc_messages.h, so
// the codec below is testable without any discovery type.
//
// Versioning: the protocol version rides in every frame header, so a
// mismatched peer is rejected on the first frame either side reads,
// whichever direction speaks first. Only version 3 is served; any other
// version is rejected with one error naming v3, and the server drops that
// connection. Payloads are bounded by kMaxFramePayload; a length prefix
// past the bound is rejected before any allocation, so a corrupt or
// hostile peer cannot make a server reserve gigabytes.
//
// request_id: responses may complete out of order (the server hands
// frames to a worker pool and replies as results land), so every frame
// carries the caller-chosen id that pairs a response with its request.

#ifndef JOINMI_NET_FRAME_H_
#define JOINMI_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/net/socket.h"

namespace joinmi {
namespace net {

inline constexpr char kFrameMagic[4] = {'J', 'M', 'R', 'P'};
/// The one protocol version this build speaks and accepts.
inline constexpr uint32_t kProtocolVersion = 3;
/// Wire size of a complete frame header (magic + version + type + length
/// + request id).
inline constexpr size_t kFrameHeaderSize = 4 + 4 + 1 + 4 + 8;
/// Hard payload bound: a serialized train sketch plus headroom; far above
/// any legitimate message, far below an allocation attack.
inline constexpr uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// \brief Message kinds carried over a serving connection. Tags 3 and 4
/// belonged to the retired per-variant search exchange; they decode as
/// unknown and are never reused.
enum class FrameType : uint8_t {
  kHandshakeRequest = 1,
  kHandshakeResponse = 2,
  kHealthRequest = 5,
  kHealthResponse = 6,
  /// Server-side failure to even parse/dispatch a request (a well-formed
  /// response frame carries its own Status instead).
  kError = 7,
  /// Upload + cache the train sketch once per connection.
  kSketchUploadRequest = 8,
  kSketchUploadResponse = 9,
  /// One (k, min_join_size) search against one cached sketch.
  kSearchRequest = 10,
  kSearchResponse = 11,
  /// Ask the server for its metrics snapshot (empty payload -> a Status +
  /// JSON document; see rpc::StatsResponse).
  kStatsRequest = 12,
  kStatsResponse = 13,
  /// Ask the server to re-resolve its deployment reference and swap in
  /// the newest manifest generation (empty payload -> a Status + the
  /// served epoch; see rpc::ReloadResponse). In-flight queries complete
  /// against their admission-time snapshot.
  kReloadRequest = 14,
  kReloadResponse = 15,
};

const char* FrameTypeToString(FrameType type);

/// \brief One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  /// Caller-chosen response-pairing id.
  uint64_t request_id = 0;
  std::string payload;
};

/// \brief Encodes a complete frame (header + payload). The payload bound
/// is enforced at the send/decode layer, not here, so tests can craft
/// oversized frames.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);

/// \brief Decodes a buffer holding exactly one frame. Validates magic,
/// protocol version, frame type tag, the payload bound, and that the
/// buffer length matches the declared payload length (no trailing bytes).
Result<Frame> DecodeFrame(const std::string& buffer);

/// \brief Writes one frame to the socket. On failure `*bytes_written`
/// (optional) reports how many frame bytes reached the wire — zero means
/// the request never left this process, which is the only case a retrying
/// caller may treat as safe to resend unconditionally.
Status SendFrame(Socket* socket, FrameType type, uint64_t request_id,
                 const std::string& payload,
                 size_t* bytes_written = nullptr);

/// \brief Reads one frame from the socket, applying the same validation
/// as DecodeFrame before the payload is read (so an oversized length
/// prefix is rejected without allocating or draining it).
Result<Frame> RecvFrame(Socket* socket);

/// \brief Incremental frame decoder for nonblocking readers: feed whatever
/// bytes the socket produced, pop complete frames as they materialize.
/// The header is validated as soon as its bytes are available, so a bad
/// magic / version / type / oversized length poisons the stream before the
/// payload arrives; after any error the assembler stays poisoned and the
/// connection must be dropped (resynchronizing inside a byte stream is not
/// possible).
class FrameAssembler {
 public:
  /// Appends raw bytes from the wire. Cheap; all parsing happens in Next().
  void Feed(const char* data, size_t len);

  /// Pops the next complete frame into `*out`. Returns true when a frame
  /// was produced, false when more bytes are needed, an error when the
  /// stream is corrupt (sticky).
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed (tests + backpressure gauges).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  Status poisoned_ = Status::OK();
};

}  // namespace net
}  // namespace joinmi

#endif  // JOINMI_NET_FRAME_H_
