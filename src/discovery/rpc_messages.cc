#include "src/discovery/rpc_messages.h"

#include <utility>

#include "src/sketch/serialize.h"

namespace joinmi {
namespace rpc {

namespace {

constexpr char kSketchCacheFullPrefix[] = "connection sketch cache is full";

Status CheckAtEnd(const wire::Reader& reader, const char* what) {
  if (!reader.AtEnd()) {
    return Status::IOError(std::string("trailing bytes after ") + what +
                           " payload");
  }
  return Status::OK();
}

void AppendEstimate(std::string* out, const JoinMIEstimate& estimate) {
  wire::AppendPod<double>(out, estimate.mi);
  wire::AppendPod<uint8_t>(out, static_cast<uint8_t>(estimate.estimator));
  wire::AppendPod<uint64_t>(out, estimate.sample_size);
  wire::AppendPod<uint8_t>(out, estimate.sketched ? 1 : 0);
}

Result<JoinMIEstimate> ReadEstimate(wire::Reader* reader) {
  JoinMIEstimate estimate;
  uint8_t estimator = 0, sketched = 0;
  uint64_t sample_size = 0;
  JOINMI_RETURN_NOT_OK(reader->Read(&estimate.mi));
  JOINMI_RETURN_NOT_OK(reader->Read(&estimator));
  JOINMI_RETURN_NOT_OK(reader->Read(&sample_size));
  JOINMI_RETURN_NOT_OK(reader->Read(&sketched));
  if (estimator > static_cast<uint8_t>(MIEstimatorKind::kDCKSG)) {
    return Status::IOError("unknown estimator tag in search response");
  }
  if (sketched > 1) {
    return Status::IOError("bad sketched flag in search response");
  }
  estimate.estimator = static_cast<MIEstimatorKind>(estimator);
  estimate.sample_size = sample_size;
  estimate.sketched = sketched == 1;
  return estimate;
}

}  // namespace

void AppendStatus(std::string* out, const Status& status) {
  wire::AppendPod<uint8_t>(out, static_cast<uint8_t>(status.code()));
  wire::AppendLengthPrefixed(out, status.message());
}

Status ReadStatus(wire::Reader* reader, Status* out) {
  uint8_t code = 0;
  std::string message;
  JOINMI_RETURN_NOT_OK(reader->Read(&code));
  JOINMI_RETURN_NOT_OK(reader->ReadLengthPrefixed(&message));
  if (code > static_cast<uint8_t>(StatusCode::kOverloaded)) {
    return Status::IOError("unknown status code tag " + std::to_string(code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// ------------------------------------------------------------- Handshake

std::string EncodeHandshakeResponse(const HandshakeResponse& response) {
  std::string out;
  AppendJoinMIConfig(&out, response.config);
  wire::AppendPod<uint64_t>(&out, response.num_candidates);
  return out;
}

Result<HandshakeResponse> DecodeHandshakeResponse(
    const std::string& payload) {
  wire::Reader reader(payload);
  HandshakeResponse response;
  JOINMI_ASSIGN_OR_RETURN(response.config, ReadJoinMIConfig(&reader));
  JOINMI_RETURN_NOT_OK(reader.Read(&response.num_candidates));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "handshake response"));
  return response;
}

// ---------------------------------------------------------------- Search

std::string EncodeSearchResponse(const SearchResponse& response) {
  std::string out;
  AppendStatus(&out, response.status);
  if (!response.status.ok()) return out;
  const ShardSearchResult& result = response.result;
  wire::AppendPod<uint64_t>(&out, result.num_candidates);
  wire::AppendPod<uint64_t>(&out, result.num_evaluated);
  wire::AppendPod<uint64_t>(&out, result.num_skipped);
  wire::AppendPod<uint64_t>(&out, result.num_errors);
  wire::AppendPod<uint64_t>(&out, result.hits.size());
  for (const ShardSearchHit& hit : result.hits) {
    wire::AppendPod<uint64_t>(&out, hit.global_index);
    wire::AppendLengthPrefixed(&out, hit.ref.table_name);
    wire::AppendLengthPrefixed(&out, hit.ref.key_column);
    wire::AppendLengthPrefixed(&out, hit.ref.value_column);
    AppendEstimate(&out, hit.estimate);
  }
  return out;
}

Result<SearchResponse> DecodeSearchResponse(const std::string& payload) {
  wire::Reader reader(payload);
  SearchResponse response;
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, &response.status));
  if (!response.status.ok()) {
    JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "search response"));
    return response;
  }
  uint64_t num_candidates = 0, num_evaluated = 0, num_skipped = 0,
           num_errors = 0, hit_count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&num_candidates));
  JOINMI_RETURN_NOT_OK(reader.Read(&num_evaluated));
  JOINMI_RETURN_NOT_OK(reader.Read(&num_skipped));
  JOINMI_RETURN_NOT_OK(reader.Read(&num_errors));
  JOINMI_RETURN_NOT_OK(reader.Read(&hit_count));
  // Each hit needs at least 34 bytes (global index + three length
  // prefixes + estimate); divide rather than multiply so a crafted count
  // cannot overflow past the check.
  if (hit_count > reader.remaining() / 34) {
    return Status::IOError("search response hit count exceeds payload size");
  }
  response.result.num_candidates = static_cast<size_t>(num_candidates);
  response.result.num_evaluated = static_cast<size_t>(num_evaluated);
  response.result.num_skipped = static_cast<size_t>(num_skipped);
  response.result.num_errors = static_cast<size_t>(num_errors);
  response.result.hits.reserve(static_cast<size_t>(hit_count));
  for (uint64_t i = 0; i < hit_count; ++i) {
    ShardSearchHit hit;
    JOINMI_RETURN_NOT_OK(reader.Read(&hit.global_index));
    JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&hit.ref.table_name));
    JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&hit.ref.key_column));
    JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&hit.ref.value_column));
    JOINMI_ASSIGN_OR_RETURN(hit.estimate, ReadEstimate(&reader));
    response.result.hits.push_back(std::move(hit));
  }
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "search response"));
  return response;
}

// ---------------------------------------------------------------- Health

std::string EncodeHealthResponse(const HealthResponse& response) {
  std::string out;
  wire::AppendPod<uint64_t>(&out, response.num_candidates);
  wire::AppendPod<uint64_t>(&out, response.requests_served);
  return out;
}

Result<HealthResponse> DecodeHealthResponse(const std::string& payload) {
  wire::Reader reader(payload);
  HealthResponse response;
  JOINMI_RETURN_NOT_OK(reader.Read(&response.num_candidates));
  JOINMI_RETURN_NOT_OK(reader.Read(&response.requests_served));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "health response"));
  return response;
}

// --------------------------------------------------------- Sketch upload

std::string EncodeSketchUploadRequest(const SketchUploadRequest& request) {
  std::string out;
  wire::AppendPod<uint64_t>(&out, request.digest);
  wire::AppendLengthPrefixed(&out, request.train_sketch);
  return out;
}

Result<SketchUploadRequest> DecodeSketchUploadRequest(
    const std::string& payload) {
  wire::Reader reader(payload);
  SketchUploadRequest request;
  JOINMI_RETURN_NOT_OK(reader.Read(&request.digest));
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&request.train_sketch));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "sketch upload request"));
  return request;
}

std::string EncodeSketchUploadResponse(const SketchUploadResponse& response) {
  std::string out;
  AppendStatus(&out, response.status);
  wire::AppendPod<uint64_t>(&out, response.digest);
  return out;
}

Result<SketchUploadResponse> DecodeSketchUploadResponse(
    const std::string& payload) {
  wire::Reader reader(payload);
  SketchUploadResponse response;
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, &response.status));
  JOINMI_RETURN_NOT_OK(reader.Read(&response.digest));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "sketch upload response"));
  return response;
}

Status SketchCacheFull(size_t limit) {
  return Status::InvalidArgument(std::string(kSketchCacheFullPrefix) + " (" +
                                 std::to_string(limit) +
                                 " sketches); open a new connection for new "
                                 "queries");
}

bool IsSketchCacheFull(const Status& status) {
  return status.IsInvalidArgument() &&
         status.message().rfind(kSketchCacheFullPrefix, 0) == 0;
}

// ---------------------------------------------------------- Batch search

std::string EncodeBatchSearchRequest(const BatchSearchRequest& request) {
  std::string out;
  wire::AppendPod<uint64_t>(&out, request.sketch_digest);
  wire::AppendPod<uint32_t>(&out, static_cast<uint32_t>(request.variants.size()));
  for (const BatchSearchVariant& variant : request.variants) {
    wire::AppendPod<uint64_t>(&out, variant.k);
    wire::AppendPod<uint64_t>(&out, variant.min_join_size);
  }
  return out;
}

Result<BatchSearchRequest> DecodeBatchSearchRequest(
    const std::string& payload) {
  wire::Reader reader(payload);
  BatchSearchRequest request;
  uint32_t count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&request.sketch_digest));
  JOINMI_RETURN_NOT_OK(reader.Read(&count));
  // 16 bytes per variant; divide so a crafted count cannot overflow.
  if (count > reader.remaining() / 16) {
    return Status::IOError(
        "batch search request variant count exceeds payload size");
  }
  request.variants.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchSearchVariant variant;
    JOINMI_RETURN_NOT_OK(reader.Read(&variant.k));
    JOINMI_RETURN_NOT_OK(reader.Read(&variant.min_join_size));
    request.variants.push_back(variant);
  }
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "batch search request"));
  return request;
}

std::string EncodeBatchSearchResponse(const BatchSearchResponse& response) {
  std::string out;
  AppendStatus(&out, response.status);
  if (!response.status.ok()) return out;
  wire::AppendPod<uint32_t>(&out,
                            static_cast<uint32_t>(response.responses.size()));
  for (const SearchResponse& variant : response.responses) {
    wire::AppendLengthPrefixed(&out, EncodeSearchResponse(variant));
  }
  return out;
}

Result<BatchSearchResponse> DecodeBatchSearchResponse(
    const std::string& payload) {
  wire::Reader reader(payload);
  BatchSearchResponse response;
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, &response.status));
  if (!response.status.ok()) {
    JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "batch search response"));
    return response;
  }
  uint32_t count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&count));
  // Each nested response is length-prefixed (u32) and a SearchResponse is
  // never smaller than its 5-byte encoded Status.
  if (count > reader.remaining() / (4 + 5)) {
    return Status::IOError(
        "batch search response count exceeds payload size");
  }
  response.responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string nested;
    JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&nested));
    JOINMI_ASSIGN_OR_RETURN(SearchResponse decoded,
                            DecodeSearchResponse(nested));
    response.responses.push_back(std::move(decoded));
  }
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "batch search response"));
  return response;
}

// ----------------------------------------------------------------- Stats

std::string EncodeStatsResponse(const StatsResponse& response) {
  std::string out;
  AppendStatus(&out, response.status);
  if (!response.status.ok()) return out;
  wire::AppendLengthPrefixed(&out, response.json);
  return out;
}

Result<StatsResponse> DecodeStatsResponse(const std::string& payload) {
  wire::Reader reader(payload);
  StatsResponse response;
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, &response.status));
  if (!response.status.ok()) {
    JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "stats response"));
    return response;
  }
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&response.json));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "stats response"));
  return response;
}

// ---------------------------------------------------------------- Reload

std::string EncodeReloadResponse(const ReloadResponse& response) {
  std::string out;
  AppendStatus(&out, response.status);
  if (!response.status.ok()) return out;
  wire::AppendPod<uint64_t>(&out, response.epoch);
  wire::AppendPod<uint64_t>(&out, response.num_candidates);
  return out;
}

Result<ReloadResponse> DecodeReloadResponse(const std::string& payload) {
  wire::Reader reader(payload);
  ReloadResponse response;
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, &response.status));
  if (!response.status.ok()) {
    JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "reload response"));
    return response;
  }
  JOINMI_RETURN_NOT_OK(reader.Read(&response.epoch));
  JOINMI_RETURN_NOT_OK(reader.Read(&response.num_candidates));
  JOINMI_RETURN_NOT_OK(CheckAtEnd(reader, "reload response"));
  return response;
}

// ----------------------------------------------------------------- Error

std::string EncodeErrorPayload(const Status& status) {
  std::string out;
  AppendStatus(&out, status);
  return out;
}

Status DecodeErrorPayload(const std::string& payload, Status* out) {
  wire::Reader reader(payload);
  JOINMI_RETURN_NOT_OK(ReadStatus(&reader, out));
  return CheckAtEnd(reader, "error");
}

}  // namespace rpc
}  // namespace joinmi
