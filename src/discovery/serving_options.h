// ServingOptions: one struct describing a serving topology's knobs, where
// there used to be three unrelated ones (RpcClientOptions for networking,
// LocalShardLoadOptions, which is PagedShardClient::Options, for paged
// local shards, and a loose cooldown on ReplicaRouterOptions).
// RouterOptions embeds a ServingOptions and Router::Open hands each of its
// two ShardClientFactory kinds (LocalFileFactory for shard files,
// ReplicaShardClient::Factory for endpoints) its slice, so an operator
// tunes a deployment in one place regardless of which backend serves it.
// The per-layer structs survive as derived slices (replica()/local())
// because each layer's API keeps its narrow signature.

#ifndef JOINMI_DISCOVERY_SERVING_OPTIONS_H_
#define JOINMI_DISCOVERY_SERVING_OPTIONS_H_

#include <cstddef>

#include "src/discovery/replica_router.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {

struct ServingOptions {
  // ---- networking (every remote shard client) ----
  /// Bound on dialing a shard server; a down server fails this fast.
  int connect_timeout_ms = 2000;
  /// Per-request read/write bound on an established connection.
  int io_timeout_ms = 30000;
  /// Connections each shard client may hold to one server.
  size_t pool_size = 4;

  // ---- replica selection ----
  /// How long a failed replica sits out before a Health() reprobe.
  int cooldown_ms = 1000;

  // ---- local paged shards ----
  /// Buffer-pool budget per paged shard, in pages.
  size_t pool_pages = 64;

  /// \brief The slice a ReplicaShardClient consumes: networking for each
  /// replica's RpcShardClient, plus the cooldown.
  ReplicaRouterOptions replica() const {
    ReplicaRouterOptions options;
    options.rpc.connect_timeout_ms = connect_timeout_ms;
    options.rpc.io_timeout_ms = io_timeout_ms;
    options.rpc.pool_size = pool_size;
    options.cooldown_ms = cooldown_ms;
    return options;
  }

  /// \brief The slice the local-file factory consumes (paged-shard knobs).
  LocalShardLoadOptions local() const {
    LocalShardLoadOptions options;
    options.pool_pages = pool_pages;
    return options;
  }
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SERVING_OPTIONS_H_
