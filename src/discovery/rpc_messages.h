// Typed JMRP message payloads for shard serving: what travels inside the
// net::Frame envelope between RpcShardClient and a shard server.
//
//   HandshakeRequest   (empty payload) -> HandshakeResponse: the server's
//       JoinMIConfig (shared wire layout from core/config.h) + u64
//       candidate count; the client checks both against the manifest with
//       JoinMIConfig::operator== before trusting the shard.
//   SearchRequest      one (k, min_join_size) plus the query's serialized
//       train sketch (sketch/serialize.h format — the query's base table
//       never crosses the wire), so every search frame is self-contained
//       and the server keeps no per-connection state.
//   SearchResponse     a wire-encoded Status; on OK, the shard's full
//       TopKSearchResult (counters + hits with global indices), so the
//       router's cross-shard merge sees exactly what LocalShardClient
//       would have produced. shard_failures does not travel: a single
//       shard never sets it, and the merge fills it router-side.
//   HealthRequest      (empty payload) -> HealthResponse
//       u64 candidate count + u64 requests served since startup.
//   Error              a wire-encoded Status, for requests the server
//       could not even parse or dispatch.
//
// All encodings use the wire:: primitives; every decoder is
// truncation-safe and validates enum tags, so a corrupt peer fails with a
// clear IOError instead of poisoning a merge.

#ifndef JOINMI_DISCOVERY_RPC_MESSAGES_H_
#define JOINMI_DISCOVERY_RPC_MESSAGES_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {
namespace rpc {

/// \brief Status as it crosses the wire: u8 code + length-prefixed
/// message. Round trips code and message exactly. (Out-parameter shape
/// because Result<Status> cannot exist: Status is Result's error arm.)
void AppendStatus(std::string* out, const Status& status);
Status ReadStatus(wire::Reader* reader, Status* out);

// ----------------------------------------------------------- Handshake

struct HandshakeResponse {
  JoinMIConfig config;
  uint64_t num_candidates = 0;
};

std::string EncodeHandshakeResponse(const HandshakeResponse& response);
Result<HandshakeResponse> DecodeHandshakeResponse(const std::string& payload);

// -------------------------------------------------------------- Search

/// \brief One top-k search: u64 k | u64 min_join_size | u32 length +
/// train sketch bytes.
struct SearchRequest {
  uint64_t k = 0;
  /// Substituted into the shard's config for this search; every other
  /// field is the shard's own.
  uint64_t min_join_size = 0;
  /// SerializeSketch() bytes of the query's train sketch.
  std::string train_sketch;
};

std::string EncodeSearchRequest(const SearchRequest& request);
Result<SearchRequest> DecodeSearchRequest(const std::string& payload);

struct SearchResponse {
  /// The shard-side Search outcome; `result` is meaningful only when OK.
  Status status;
  TopKSearchResult result;
};

std::string EncodeSearchResponse(const SearchResponse& response);
Result<SearchResponse> DecodeSearchResponse(const std::string& payload);

// -------------------------------------------------------------- Health

struct HealthResponse {
  uint64_t num_candidates = 0;
  /// Search frames answered since the server started; handshakes and
  /// health probes are not counted.
  uint64_t requests_served = 0;
};

std::string EncodeHealthResponse(const HealthResponse& response);
Result<HealthResponse> DecodeHealthResponse(const std::string& payload);

// ---------------------------------------------------------------- Reload

/// \brief Answer to kReloadRequest (whose payload is empty): the server
/// re-resolved its deployment reference (directory / CURRENT pointer) and
/// swapped in the newest manifest generation. epoch/num_candidates are
/// meaningful only when `status` is OK and describe what the server is
/// serving after the swap.
struct ReloadResponse {
  Status status;
  uint64_t epoch = 0;
  uint64_t num_candidates = 0;
};

std::string EncodeReloadResponse(const ReloadResponse& response);
Result<ReloadResponse> DecodeReloadResponse(const std::string& payload);

// --------------------------------------------------------------- Error

std::string EncodeErrorPayload(const Status& status);
/// \brief Decodes an error payload into `*out`; the returned Status
/// reports decode failures, `*out` carries the server's error.
Status DecodeErrorPayload(const std::string& payload, Status* out);

}  // namespace rpc
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_MESSAGES_H_
