// ServingOptions: one struct describing a serving topology's knobs, where
// there used to be three unrelated ones (RpcClientOptions for networking,
// ShardedSketchIndex::LocalShardLoadOptions / PagedShardClient::Options
// for paged local shards, and a loose cooldown on ReplicaRouterOptions).
// RouterOptions embeds a ServingOptions and every ShardClientFactory
// implementation consumes its slice, so an operator tunes a deployment in
// one place regardless of which backend serves it. The per-layer structs
// survive as derived slices (rpc()/replica()/local()) because each layer's
// API keeps its narrow signature.

#ifndef JOINMI_DISCOVERY_SERVING_OPTIONS_H_
#define JOINMI_DISCOVERY_SERVING_OPTIONS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/discovery/replica_router.h"
#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {

struct ServingOptions {
  // ---- networking (every remote shard client) ----
  /// Bound on dialing a shard server; a down server fails this fast.
  int connect_timeout_ms = 2000;
  /// Per-request read/write bound on an established connection.
  int io_timeout_ms = 30000;
  /// Attempts per request, counting the first; extra attempts are spent
  /// only on failures that provably precede the request reaching the wire.
  int max_attempts = 2;
  /// Connections each shard client may hold to one server.
  size_t pool_size = 4;

  // ---- replica selection ----
  /// How long a failed replica sits out before a Health() reprobe.
  int cooldown_ms = 1000;

  // ---- local paged shards ----
  /// Buffer-pool budget per paged shard, in pages.
  size_t pool_pages = 64;

  /// \brief The networking slice an RpcShardClient consumes.
  RpcClientOptions rpc() const {
    RpcClientOptions options;
    options.connect_timeout_ms = connect_timeout_ms;
    options.io_timeout_ms = io_timeout_ms;
    options.max_attempts = max_attempts;
    options.pool_size = pool_size;
    return options;
  }

  /// \brief The slice a ReplicaShardClient consumes (networking + cooldown).
  ReplicaRouterOptions replica() const {
    ReplicaRouterOptions options;
    options.rpc = rpc();
    options.cooldown_ms = cooldown_ms;
    return options;
  }

  /// \brief The slice the local-file factory consumes (paged-shard knobs).
  ShardedSketchIndex::LocalShardLoadOptions local() const {
    ShardedSketchIndex::LocalShardLoadOptions options;
    options.pool_pages = pool_pages;
    return options;
  }
};

/// \brief The three ShardClientFactory implementations, each fed from one
/// ServingOptions — the construction seam Router::Open wires up, exposed
/// for callers assembling a ShardedSketchIndex directly.
inline ShardClientFactory LocalShardFactory(const ServingOptions& options) {
  return ShardedSketchIndex::LocalFileFactory(options.local());
}

inline ShardClientFactory RpcShardFactory(
    std::vector<ShardEndpoint> endpoints, const ServingOptions& options) {
  return RpcShardClient::Factory(std::move(endpoints), options.rpc());
}

inline ShardClientFactory ReplicaShardFactory(
    std::vector<std::vector<ShardEndpoint>> replica_endpoints,
    const ServingOptions& options) {
  return ReplicaShardClient::Factory(std::move(replica_endpoints),
                                     options.replica());
}

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SERVING_OPTIONS_H_
