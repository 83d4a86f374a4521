#include "src/discovery/rpc_shard_client.h"

#include <utility>

#include "src/net/frame.h"
#include "src/sketch/serialize.h"

namespace joinmi {

// ---------------------------------------------------------- Endpoint file

Result<ShardEndpoint> ParseShardEndpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not host:port");
  }
  // A space or comma means several endpoints ran together — most likely a
  // v2 replica line fed to a single-endpoint parser. Reject instead of
  // swallowing the junk into the host name (rfind would happily treat
  // "a:1 b" as the host of ":2").
  if (spec.find_first_of(" \t,") != std::string::npos) {
    return Status::InvalidArgument(
        "endpoint '" + spec +
        "' contains whitespace or a comma — one host:port expected");
  }
  const std::string port_str = spec.substr(colon + 1);
  long port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' has a non-numeric port");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' port is out of range");
    }
  }
  if (port < 1) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' port is out of range");
  }
  ShardEndpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Status ValidateServingManifest(const ShardManifest& manifest,
                               size_t num_entries) {
  if (!manifest.config.has_value()) {
    return Status::InvalidArgument(
        "manifest has no embedded JoinMIConfig (legacy v1 format) — "
        "remote serving needs it to sketch queries; repartition with "
        "the current build_shards");
  }
  if (num_entries != manifest.shards.size()) {
    return Status::InvalidArgument(
        "manifest names " + std::to_string(manifest.shards.size()) +
        " shards but " + std::to_string(num_entries) +
        " shard endpoint entries were provided");
  }
  return Status::OK();
}

// --------------------------------------------------------- RpcShardClient

RpcShardClient::RpcShardClient(ShardEndpoint endpoint,
                               JoinMIConfig expected_config,
                               uint64_t expected_candidates,
                               RpcClientOptions options)
    : endpoint_(std::move(endpoint)),
      config_(std::move(expected_config)),
      num_candidates_(expected_candidates),
      options_(options) {
  // The dialer runs the full handshake, so every channel the set ever
  // hands out has already proven it serves this manifest entry.
  channels_ = std::make_unique<rpc::ChannelSet>(
      [this] { return DialAndHandshake(); }, options_.pool_size,
      options_.io_timeout_ms);
}

RpcShardClient::~RpcShardClient() { channels_->Close(); }

Result<std::unique_ptr<RpcShardClient>> RpcShardClient::Create(
    ShardEndpoint endpoint, JoinMIConfig expected_config,
    uint64_t expected_candidates, RpcClientOptions options) {
  JOINMI_RETURN_NOT_OK(expected_config.Validate());
  std::unique_ptr<RpcShardClient> client(new RpcShardClient(
      std::move(endpoint), std::move(expected_config), expected_candidates,
      options));
  // Eager dial: a reachable-but-wrong server (handshake mismatch, an
  // InvalidArgument) is a deployment error and fails Create; an
  // unreachable one (IOError) is an outage the router must survive, so
  // the client is returned disconnected and re-dials per request. On
  // success the verified connection becomes the set's first channel.
  auto first = client->channels_->Pick();
  if (!first.ok() && first.status().IsInvalidArgument()) {
    return first.status();
  }
  return client;
}

Result<net::Socket> RpcShardClient::DialAndHandshake() const {
  auto connected = net::Socket::Connect(endpoint_.host, endpoint_.port,
                                        options_.connect_timeout_ms);
  if (!connected.ok()) {
    return Status::IOError("shard server " + endpoint_.ToString() +
                           " is unreachable: " +
                           connected.status().message());
  }
  net::Socket socket = std::move(*connected);
  JOINMI_RETURN_NOT_OK(
      socket.SetTimeouts(options_.io_timeout_ms, options_.io_timeout_ms));
  JOINMI_RETURN_NOT_OK(net::SendFrame(
      &socket, net::FrameType::kHandshakeRequest, /*request_id=*/0, ""));
  JOINMI_ASSIGN_OR_RETURN(net::Frame frame, net::RecvFrame(&socket));
  if (frame.type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame.payload, &server_error));
    return server_error;
  }
  if (frame.type != net::FrameType::kHandshakeResponse) {
    return Status::IOError("shard server " + endpoint_.ToString() +
                           " answered the handshake with a " +
                           std::string(net::FrameTypeToString(frame.type)) +
                           " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::HandshakeResponse handshake,
                          rpc::DecodeHandshakeResponse(frame.payload));
  // The operator== agreement: a server whose shard was built under any
  // other config can never coordinate with this manifest's queries.
  if (handshake.config != config_) {
    return Status::InvalidArgument(
        "shard server " + endpoint_.ToString() +
        " serves a shard built under a different JoinMIConfig (" +
        handshake.config.ToString() + ") than the manifest expects (" +
        config_.ToString() + ")");
  }
  if (handshake.num_candidates != num_candidates_) {
    return Status::InvalidArgument(
        "shard server " + endpoint_.ToString() + " holds " +
        std::to_string(handshake.num_candidates) +
        " candidates but the manifest records " +
        std::to_string(num_candidates_));
  }
  return socket;
}

Result<ShardSearchResult> RpcShardClient::Search(const JoinMIQuery& query,
                                                 size_t k,
                                                 size_t num_threads) const {
  return Search(query, k, num_threads, nullptr);
}

Result<ShardSearchResult> RpcShardClient::Search(const JoinMIQuery& query,
                                                 size_t k,
                                                 size_t num_threads,
                                                 bool* reached_wire) const {
  if (k == 0) {
    return Status::InvalidArgument("shard search requires k >= 1");
  }
  std::vector<ShardSearchVariant> variants(1);
  variants[0].k = k;
  variants[0].min_join_size = query.config().min_join_size;
  JOINMI_ASSIGN_OR_RETURN(
      std::vector<ShardSearchResult> results,
      SearchVariants(query, variants, num_threads, reached_wire));
  return std::move(results[0]);
}

Result<std::vector<ShardSearchResult>> RpcShardClient::SearchVariants(
    const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants,
    size_t num_threads) const {
  return SearchVariants(query, variants, num_threads, nullptr);
}

Result<std::vector<ShardSearchResult>> RpcShardClient::SearchVariants(
    const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants, size_t num_threads,
    bool* reached_wire) const {
  (void)num_threads;  // evaluation parallelism belongs to the server
  for (const ShardSearchVariant& variant : variants) {
    if (variant.k == 0) {
      return Status::InvalidArgument("shard search requires k >= 1");
    }
  }
  // Everything except min_join_size must match the shard's config: those
  // fields change estimates, and only min_join_size travels per variant.
  // Rejecting here keeps "RPC == local, byte for byte" honest.
  JoinMIConfig comparable = config_;
  comparable.min_join_size = query.config().min_join_size;
  if (query.config() != comparable) {
    return Status::InvalidArgument(
        "query config (" + query.config().ToString() +
        ") disagrees with shard server " + endpoint_.ToString() +
        "'s config (" + config_.ToString() +
        ") beyond min_join_size — the shard would answer under the wrong "
        "configuration");
  }
  if (variants.empty()) return std::vector<ShardSearchResult>{};

  Status last = Status::IOError("no attempt made");
  int attempt = 0;
  while (attempt < options_.max_attempts) {
    auto channel = channels_->Pick();
    if (!channel.ok()) {
      // Dial or handshake failed — nothing of this request reached the
      // wire, so retrying is free. A handshake *mismatch* is a
      // deterministic deployment error another attempt cannot fix.
      if (channel.status().IsInvalidArgument()) return channel.status();
      last = channel.status();
      ++attempt;
      continue;
    }
    bool attempt_reached = false;
    auto result = RunVariants(**channel, query, variants, &attempt_reached);
    if (attempt_reached && reached_wire != nullptr) *reached_wire = true;
    if (result.ok()) return result;
    // The connection's sketch cache was full and the channel retired
    // before any search byte left: move to a fresh connection without
    // spending an attempt. Each such retry retired a channel that had
    // accepted sketches, so the loop cannot spin on a server that refuses
    // everything.
    if (rpc::IsSketchCacheFull(result.status()) && (*channel)->retired()) {
      continue;
    }
    // Anything non-IO is deterministic (bad request, server-side
    // validation); anything IO after the request may have reached the
    // server must not be re-sent — "maybe executed twice" stays
    // impossible.
    if (!result.status().IsIOError()) return result.status();
    if (attempt_reached) return result.status();
    last = result.status();
    ++attempt;
  }
  return last;
}

Result<std::vector<ShardSearchResult>> RpcShardClient::RunVariants(
    rpc::Channel& channel, const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants,
    bool* reached_wire) const {
  // Make sure the sketch is cached server-side (uploaded at most once per
  // connection, idempotent by digest — its reached-ness never taints the
  // search's retry eligibility), then send the digest-only batch.
  const std::string& sketch_bytes = query.SerializedTrainSketch();
  const uint64_t digest = wire::Checksum64(sketch_bytes);
  JOINMI_RETURN_NOT_OK(channel.EnsureSketchUploaded(digest, sketch_bytes));
  rpc::BatchSearchRequest request;
  request.sketch_digest = digest;
  request.variants.reserve(variants.size());
  for (const ShardSearchVariant& variant : variants) {
    rpc::BatchSearchVariant wire_variant;
    wire_variant.k = variant.k;
    wire_variant.min_join_size = variant.min_join_size;
    request.variants.push_back(wire_variant);
  }
  auto frame = channel.Call(net::FrameType::kBatchSearchRequest,
                            rpc::EncodeBatchSearchRequest(request),
                            reached_wire);
  if (!frame.ok()) {
    if (*reached_wire) {
      return Status::IOError("no response from shard server " +
                             endpoint_.ToString() + " (not retried): " +
                             frame.status().message());
    }
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame->payload, &server_error));
    return server_error;
  }
  if (frame->type != net::FrameType::kBatchSearchResponse) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() +
        " answered a batch search with a " +
        std::string(net::FrameTypeToString(frame->type)) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::BatchSearchResponse response,
                          rpc::DecodeBatchSearchResponse(frame->payload));
  JOINMI_RETURN_NOT_OK(response.status);
  if (response.responses.size() != variants.size()) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() + " answered " +
        std::to_string(response.responses.size()) + " variants for a " +
        std::to_string(variants.size()) + "-variant batch");
  }
  std::vector<ShardSearchResult> results;
  results.reserve(variants.size());
  for (rpc::SearchResponse& one : response.responses) {
    JOINMI_RETURN_NOT_OK(one.status);
    results.push_back(std::move(one.result));
  }
  return results;
}

Result<rpc::HealthResponse> RpcShardClient::Health() const {
  auto channel = channels_->Pick();
  if (!channel.ok()) {
    return channel.status();
  }
  auto frame =
      (*channel)->Call(net::FrameType::kHealthRequest, "", nullptr);
  if (!frame.ok()) {
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame->payload, &server_error));
    return server_error;
  }
  if (frame->type != net::FrameType::kHealthResponse) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() +
        " answered a health probe with a " +
        std::string(net::FrameTypeToString(frame->type)) + " frame");
  }
  return rpc::DecodeHealthResponse(frame->payload);
}

Result<std::string> RpcShardClient::Stats() const {
  auto channel = channels_->Pick();
  if (!channel.ok()) {
    return channel.status();
  }
  auto frame = (*channel)->Call(net::FrameType::kStatsRequest, "", nullptr);
  if (!frame.ok()) {
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame->payload, &server_error));
    return server_error;
  }
  if (frame->type != net::FrameType::kStatsResponse) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() +
        " answered a stats request with a " +
        std::string(net::FrameTypeToString(frame->type)) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::StatsResponse response,
                          rpc::DecodeStatsResponse(frame->payload));
  JOINMI_RETURN_NOT_OK(response.status);
  return std::move(response.json);
}

Result<rpc::ReloadResponse> RpcShardClient::Reload() const {
  auto channel = channels_->Pick();
  if (!channel.ok()) {
    return channel.status();
  }
  auto frame = (*channel)->Call(net::FrameType::kReloadRequest, "", nullptr);
  if (!frame.ok()) {
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame->payload, &server_error));
    return server_error;
  }
  if (frame->type != net::FrameType::kReloadResponse) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() +
        " answered a reload request with a " +
        std::string(net::FrameTypeToString(frame->type)) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::ReloadResponse response,
                          rpc::DecodeReloadResponse(frame->payload));
  JOINMI_RETURN_NOT_OK(response.status);
  return response;
}

ShardClientFactory RpcShardClient::Factory(
    std::vector<ShardEndpoint> endpoints, RpcClientOptions options) {
  return [endpoints = std::move(endpoints), options](
             const ShardManifest& manifest, size_t shard,
             const std::string& manifest_dir)
             -> Result<std::unique_ptr<ShardClient>> {
    (void)manifest_dir;  // remote shards have no local files
    JOINMI_RETURN_NOT_OK(ValidateServingManifest(manifest, endpoints.size()));
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<RpcShardClient> client,
        RpcShardClient::Create(endpoints[shard], *manifest.config,
                               manifest.shards[shard].candidate_count,
                               options));
    return std::unique_ptr<ShardClient>(std::move(client));
  };
}

}  // namespace joinmi
