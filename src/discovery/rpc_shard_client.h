// RpcShardClient: the ShardClient implementation that speaks JMRP to one
// remote shard server process — the per-replica transport under
// ReplicaShardClient (replica_router.h), which is how a ShardedSketchIndex
// assembled from host:port endpoints reaches its shards. Rankings are the
// same as from local shard files, byte for byte.
//
// Connection model: an rpc::ChannelSet of at most
// RpcClientOptions::pool_size lazily dialed TCP connections per client;
// every dial runs the JMRP handshake before its channel serves a request.
// Each channel PIPELINES: concurrent Search calls stamp distinct request
// ids, share one connection, and are demultiplexed as responses arrive in
// any order — pool_size bounds connections, not in-flight requests.
// Requests route to the channel with the fewest calls in flight; a new
// connection is dialed only when every existing channel is busy and
// capacity remains.
//
// Every search frame carries the query's serialized train sketch (built
// once per query and shared by every shard of a fan-out), so a request
// needs nothing cached on its connection and the server keeps no
// per-connection state.
//
// Creating a client against a *down* server succeeds (the router must be
// able to assemble and serve degraded while a shard is being restarted);
// the outage surfaces per-request. A *reachable* server that fails the
// handshake — wrong JoinMIConfig or candidate count for the manifest
// entry — fails Create loudly instead: that is a deployment
// misconfiguration, not an outage.
//
// Retry policy: a request gets at most kMaxAttempts attempts, and is
// retried only while it is provably not yet on the wire — connect/handshake
// failures, or a send that wrote zero bytes. After a partial write, and
// after any failure past the send, the request is NOT retried: the server
// may have executed it, and "maybe executed twice" is a property this
// layer refuses to introduce even for idempotent searches. The
// reached_wire out-parameters report whether any search byte left the
// process — the signal replica failover keys on.

#ifndef JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_
#define JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/discovery/rpc_channel.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/sharded_index.h"
#include "src/net/socket.h"

namespace joinmi {

/// \brief One shard server address.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// \brief Parses "host:port" (the port is the digits after the last
/// colon, so bracketless IPv6 hosts are not supported — use names or
/// IPv4 addresses).
Result<ShardEndpoint> ParseShardEndpoint(const std::string& spec);

/// \brief Client-side networking knobs.
struct RpcClientOptions {
  /// Bound on dialing a shard server; a down server fails this fast.
  int connect_timeout_ms = 2000;
  /// Per-request read/write bound on the established connection.
  int io_timeout_ms = 30000;
  /// Connections this client may hold to its shard server. Each
  /// connection pipelines, so this bounds sockets, not concurrency.
  size_t pool_size = 4;
};

/// \brief ShardClient over a remote shard server.
class RpcShardClient : public ShardClient {
 public:
  /// Attempts per search, counting the first; the extra one is spent only
  /// on a failure that provably precedes the request reaching the wire.
  static constexpr int kMaxAttempts = 2;

  /// \brief Builds a client for `endpoint`, expecting the server to hold
  /// `expected_candidates` candidates sketched under `expected_config`
  /// (both from the manifest). Dials eagerly to surface handshake
  /// mismatches at assembly time, but an unreachable server is tolerated —
  /// see the connection model above.
  static Result<std::unique_ptr<RpcShardClient>> Create(
      ShardEndpoint endpoint, JoinMIConfig expected_config,
      uint64_t expected_candidates, RpcClientOptions options = {});

  /// Closes the channel set so any thread waiting on a dial wakes with a
  /// deterministic error before members are torn down.
  ~RpcShardClient() override;

  // Pinned in place: the channel set's dialer captures `this`, so a
  // moved-from client would leave it dialing through a dangling pointer.
  // Create hands out unique_ptrs precisely so nobody needs to move the
  // object itself.
  RpcShardClient(const RpcShardClient&) = delete;
  RpcShardClient& operator=(const RpcShardClient&) = delete;

  /// \brief The manifest-agreed config (identical to the server's; the
  /// handshake enforces it with JoinMIConfig::operator==).
  const JoinMIConfig& config() const override { return config_; }
  size_t num_candidates() const override {
    return static_cast<size_t>(num_candidates_);
  }

  /// \brief Remote search — byte-identical to LocalShardClient over the
  /// same shard: one search frame carrying the query's train sketch.
  /// `num_threads` is ignored: evaluation parallelism belongs to the
  /// server. Queries whose config disagrees with the shard's (beyond
  /// min_join_size, which travels in the request) are rejected here —
  /// the server would silently answer under *its* config otherwise.
  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads) const override;

  /// \brief Search with failover telemetry: `*reached_wire` (must start
  /// false) is set as soon as any byte of a search frame may have left
  /// the process — after that the server may have executed the request,
  /// so the caller must not re-send it elsewhere.
  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads,
                                  bool* reached_wire) const;

  /// \brief Liveness + identity probe: cheap, never retried.
  Result<rpc::HealthResponse> Health() const;

  /// \brief Asks the server to re-resolve its deployment reference and
  /// swap in the newest manifest generation (never retried — reloads are idempotent but the caller should see every failure).
  /// On OK the response reports the epoch and candidate count now
  /// serving. NOTE: after a successful reload the server's candidate
  /// count may no longer match the manifest this client was created
  /// from — existing connections keep working, but fresh dials
  /// re-verify against the stale expectation. Callers that keep
  /// searching should rebuild their clients from the new manifest (the
  /// router's Reload() does exactly that).
  Result<rpc::ReloadResponse> Reload() const;

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// \brief Connections successfully dialed (and handshaken) so far —
  /// tests and benchmarks read it to prove connection reuse (or the
  /// absence of over-dialing) rather than inferring it from timing.
  uint64_t dials() const { return channels_->dials(); }

  /// \brief High-water mark of requests simultaneously in flight on ONE
  /// connection — >= 2 proves pipelining actually happened.
  size_t max_pipelined() const { return channels_->max_pipelined(); }

  /// \brief Channels currently alive (each owns one connection).
  size_t live_channels() const { return channels_->live_channels(); }

 private:
  RpcShardClient(ShardEndpoint endpoint, JoinMIConfig expected_config,
                 uint64_t expected_candidates, RpcClientOptions options);

  /// \brief The channel set's dialer: TCP connect + JMRP handshake,
  /// verifying the server against the manifest-expected config and
  /// candidate count.
  Result<net::Socket> DialAndHandshake() const;

  /// \brief One search attempt on `channel`: send the search frame and
  /// decode its answer.
  Result<TopKSearchResult> RunSearch(rpc::Channel& channel,
                                     const JoinMIQuery& query, size_t k,
                                     bool* reached_wire) const;

  ShardEndpoint endpoint_;
  JoinMIConfig config_;
  uint64_t num_candidates_ = 0;
  RpcClientOptions options_;

  // Owns every connection to this shard; pool_size bounds them.
  // unique_ptr because the dialer captures `this` (stable for a
  // heap-allocated client).
  std::unique_ptr<rpc::ChannelSet> channels_;
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_
