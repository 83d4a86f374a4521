// discovery::Router — the front tier of serving, and the ONE construction
// path for a queryable deployment. Router::Open(RouterOptions) subsumes
// the manual wiring callers used to do by hand (ShardedSketchIndex::Load
// + picking LocalFileFactory or ReplicaShardClient::Factory and threading
// option structs through them): name a manifest, optionally the shards'
// replica endpoints (ReadShardEndpoints reads them from a file), tune one
// ServingOptions, and the router assembles the backend.
//
// Behind the facade, the router adds what every deployment front tier
// needs and no caller should re-implement:
//
//   Result cache. A bounded LRU over complete query answers, keyed by
//   (the query's full JoinMIConfig wire bytes, the train sketch's
//   Checksum64 digest, k, min_join_size). The config bytes make any
//   estimator/width/seed difference a different key; the digest stands in
//   for the sketch contents. A hit returns a copy of the stored TopKSearchResult — the doubles
//   are copied, not recomputed, so a cached answer is bit-identical to
//   the answer that populated it. DEGRADED answers (shard_failures
//   non-empty) are never cached: caching a partial answer would keep
//   serving the outage after the shard recovered. Reload() swaps the
//   index and clears the cache, so an answer can never outlive the
//   manifest it was computed from.
//
//   Admission control. An AdmissionGate bounds queries concurrently
//   inside the router (RouterOptions::max_pending; 0 = unbounded). The
//   gate sits BEFORE the cache on purpose: an overloaded front tier must
//   shed deterministically, and "reject unless it happens to be cached"
//   would make rejection timing-dependent. Rejected queries get
//   StatusCode::kOverloaded with a "retry_after_ms=N" hint
//   (common/admission.h) and zero side effects.
//
//   Metrics. Every router owns a metrics::Registry. Hot-path counters
//   (router.cache.{hits,misses,evictions}, router.admission.{admitted,
//   rejected}, router.queries.{ok,degraded,failed}) update on relaxed
//   atomics; StatsJson() additionally absorbs the gauges maintained
//   elsewhere — per-shard connection dials, pipelining high-water
//   marks, replica mark-downs, paged-shard buffer-pool stats — into one
//   JSON document. See README "Front tier" for the name table.
//
// Router implements Searchable, so the free TopKJoinMISearch drives it
// exactly like a bare index — existing call sites upgrade by swapping the
// object, not the call.

#ifndef JOINMI_DISCOVERY_ROUTER_H_
#define JOINMI_DISCOVERY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/admission.h"
#include "src/common/metrics.h"
#include "src/discovery/searchable.h"
#include "src/discovery/serving_options.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {

/// \brief Everything Router::Open needs to assemble a deployment.
struct RouterOptions {
  /// The deployment reference (required): a manifest file, a CURRENT
  /// pointer file, or a deployment directory — resolved through
  /// ingest::ResolveManifestPath at Open and again at every no-arg
  /// Reload(), so a directory-referenced router follows published
  /// generations. Shard paths resolve relative to the resolved manifest's
  /// directory for local deployments.
  std::string manifest_path;

  /// Remote deployment: shard i's replicas (ReadShardEndpoints parses an
  /// endpoints file into this; a one-host row is a one-replica shard).
  /// Empty = serve local shard files.
  std::vector<std::vector<ShardEndpoint>> replica_endpoints;

  /// The one knob struct every backend slices (see serving_options.h).
  ServingOptions serving;

  /// Result-cache entry bound; 0 disables caching entirely.
  size_t cache_entries = 128;
  /// Result-cache byte budget (approximate, counts keys + hit payloads);
  /// 0 = no byte bound (the entry bound still applies).
  size_t cache_max_bytes = 16u * 1024u * 1024u;

  /// Queries concurrently inside the router before kOverloaded rejection;
  /// 0 = unbounded (the historical behavior).
  size_t max_pending = 0;
  /// The "retry_after_ms=N" hint stamped into rejections.
  int retry_after_hint_ms = 50;

  /// Default evaluation/fan-out parallelism when a call passes 0.
  size_t num_threads = 0;

  /// Test seam: when set, Open uses this factory verbatim instead of
  /// resolving one from the fields above (e.g. to inject a blocking or
  /// failing ShardClient).
  ShardClientFactory factory_override;
};

/// \brief Point-in-time cache counters, for drills and tests.
struct RouterCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

class Router : public Searchable {
 public:
  /// \brief Assembles the deployment `options` describes: loads the
  /// manifest, resolves the backend (replica endpoints -> one
  /// ReplicaShardClient per shard; no endpoints -> local shard files),
  /// and wires cache + admission + metrics around it.
  /// Fails loudly on manifest/endpoint mismatches, exactly as the
  /// underlying factories always have.
  static Result<std::unique_ptr<Router>> Open(RouterOptions options);

  // Pinned: the admission gate and registry hand out raw pointers.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // ----------------------------------------------------------- Searchable

  const JoinMIConfig& search_config() const override;

  /// \brief The front-tier query path: admission gate, then cache, then
  /// the sharded fan-out. `num_threads` 0 falls back to
  /// RouterOptions::num_threads. Cache hits are bit-identical to the
  /// recomputation they stand in for; degraded answers pass through
  /// uncached.
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

  /// \brief Convenience: sketch `base` under the deployment's config and
  /// search — the free TopKJoinMISearch over this router.
  Result<TopKSearchResult> Search(const Table& base, const SearchSpec& spec,
                                  size_t k,
                                  ShardQueryMode mode = ShardQueryMode::kStrict)
      const;

  // ------------------------------------------------------------ Lifecycle

  /// \brief Re-opens the manifest through the same backend factory and
  /// swaps it in atomically. The result cache is cleared uncondition-
  /// ally — a new manifest epoch invalidates every cached answer, even
  /// when the contents happen to agree (and the cache key carries the
  /// epoch besides, so a stale entry could never satisfy a new-epoch
  /// lookup anyway). In-flight queries finish against the index they
  /// started with.
  Status Reload(const std::string& manifest_path);

  /// \brief Re-resolves the deployment reference Open() received
  /// (directory / CURRENT pointer / manifest path) and reloads whatever
  /// generation it names now — the one-call "pick up the publish" path.
  Status Reload();

  /// \brief Manifest epoch of the generation currently serving (0 for
  /// pre-epoch manifests).
  uint64_t epoch() const;

  // -------------------------------------------------------- Introspection

  const ShardedSketchIndex& index() const;
  size_t num_shards() const;
  /// \brief Total candidates served.
  size_t size() const;

  RouterCacheStats cache_stats() const;
  const AdmissionGate& admission() const { return gate_; }
  /// \brief The router's registry — tools may hang extra counters off it.
  metrics::Registry& metrics() const { return registry_; }
  /// \brief One JSON document: registry counters/histograms plus the
  /// absorbed per-shard gauges: shard.<i>.replica.* for remote shards
  /// (replicas, mark-downs, dials, live channels, pipelining HWM) and
  /// shard.<i>.pool.* for paged local shards, delta overlay or not. See
  /// README for the name table.
  std::string StatsJson() const;

 private:
  struct CacheEntry {
    std::string key;
    TopKSearchResult result;
    size_t bytes = 0;
  };
  using LruList = std::list<CacheEntry>;

  Router(RouterOptions options, ShardClientFactory factory,
         std::shared_ptr<const ShardedSketchIndex> index);

  /// Cache key: manifest epoch + config wire bytes + sketch digest + k +
  /// min_join_size.
  std::string CacheKey(const JoinMIQuery& query, size_t k) const;
  static size_t ApproximateBytes(const std::string& key,
                                 const TopKSearchResult& result);

  /// Looks `key` up, refreshing LRU order. True on hit (copies into
  /// `*out`).
  bool CacheLookup(const std::string& key, TopKSearchResult* out) const;
  void CacheInsert(std::string key, const TopKSearchResult& result) const;
  void CacheClear() const;

  std::shared_ptr<const ShardedSketchIndex> snapshot() const;

  RouterOptions options_;
  ShardClientFactory factory_;
  // The deployment's config, copied out of the index so search_config()
  // can return a reference that survives Reload's index swap. A Reload
  // that CHANGES the config while queries are in flight is not supported
  // (the queries' sketches would be stale anyway).
  JoinMIConfig config_;
  // The deployment reference Open() received, verbatim; the no-arg
  // Reload() re-resolves it so a CURRENT flip is picked up without the
  // caller naming the new generation.
  std::string deployment_ref_;
  // Epoch of the manifest currently serving; folded into every cache key.
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex index_mutex_;
  std::shared_ptr<const ShardedSketchIndex> index_;

  mutable std::mutex cache_mutex_;
  mutable LruList lru_;  // front = most recent
  mutable std::unordered_map<std::string, LruList::iterator> cache_;
  mutable size_t cache_bytes_ = 0;

  mutable AdmissionGate gate_;
  mutable metrics::Registry registry_;
  // Hoisted hot-path metric handles (stable for the registry's lifetime).
  metrics::Counter* cache_hits_;
  metrics::Counter* cache_misses_;
  metrics::Counter* cache_evictions_;
  metrics::Counter* admitted_;
  metrics::Counter* rejected_;
  metrics::Counter* queries_ok_;
  metrics::Counter* queries_degraded_;
  metrics::Counter* queries_failed_;
  metrics::Histogram* search_latency_;
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_ROUTER_H_
