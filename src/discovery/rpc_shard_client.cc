#include "src/discovery/rpc_shard_client.h"

#include <utility>

#include "src/net/frame.h"

namespace joinmi {

// ---------------------------------------------------------- Endpoint file

Result<ShardEndpoint> ParseShardEndpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not host:port");
  }
  // A space or comma means several endpoints ran together — a whole
  // endpoints-file line handed to this one-endpoint parser (lines are
  // split by ReadShardEndpoints). Reject instead of swallowing the junk
  // into the host name (rfind would happily treat "a:1 b" as the host of
  // ":2").
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

Result<TopKSearchResult> RpcShardClient::Search(const JoinMIQuery& query,
                                                size_t k,
                                                size_t num_threads) const {
  return Search(query, k, num_threads, nullptr);
}

Result<TopKSearchResult> RpcShardClient::Search(const JoinMIQuery& query,
                                                size_t k,
                                                size_t num_threads,
                                                bool* reached_wire) const {
  (void)num_threads;  // evaluation parallelism belongs to the server
  if (k == 0) {
    return Status::InvalidArgument("shard search requires k >= 1");
  }
  // Rejecting drift here keeps "RPC == local, byte for byte" honest.
  const Status drift = CheckQueryConfig(query.config(), config_);
  if (!drift.ok()) {
    return Status::InvalidArgument("shard server " + endpoint_.ToString() +
                                   ": " + drift.message());
  }
  Status last = Status::IOError("no attempt made");
  int attempt = 0;
  while (attempt < kMaxAttempts) {
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
    auto result = RunSearch(**channel, query, k, &attempt_reached);
    if (attempt_reached && reached_wire != nullptr) *reached_wire = true;
    if (result.ok()) return result;
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

Result<TopKSearchResult> RpcShardClient::RunSearch(
    rpc::Channel& channel, const JoinMIQuery& query, size_t k,
    bool* reached_wire) const {
  rpc::SearchRequest request;
  request.k = k;
  request.min_join_size = query.config().min_join_size;
  request.train_sketch = query.SerializedTrainSketch();
  auto frame = channel.Call(net::FrameType::kSearchRequest,
                            rpc::EncodeSearchRequest(request), reached_wire);
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
  if (frame->type != net::FrameType::kSearchResponse) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() +
        " answered a search with a " +
        std::string(net::FrameTypeToString(frame->type)) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::SearchResponse response,
                          rpc::DecodeSearchResponse(frame->payload));
  JOINMI_RETURN_NOT_OK(response.status);
  return std::move(response.result);
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

}  // namespace joinmi
