// ShardServer: the serving process for one shard of a partitioned sketch
// index. Loads a single shard file named by a manifest (checksum- and
// count-verified against the manifest entry, exactly like the local
// loader — a server can no more serve a corrupt shard than a router can
// load one), binds a TCP port, and answers JMRP requests: handshakes,
// once-per-connection sketch uploads, batched multi-variant searches,
// health probes, stats and reloads.
//
// Concurrency: a single epoll event loop (net::EventLoop) owns every
// connection's reads and writes; each decoded frame becomes one task on a
// bounded ThreadPool of request workers, and the worker's reply is queued
// back through the loop. Responses therefore complete out of order and
// are paired by the request_id — one connection can have num_workers
// requests in flight, where the old thread-per-connection design served
// each connection strictly sequentially. Every search evaluates with a
// fixed per-request thread count, so total parallelism is bounded by
// num_workers x eval_threads regardless of how many routers connect.
// Rankings do not depend on either knob.
//
// Sketch cache: a client uploads its serialized train sketch once
// (keyed by wire::Checksum64 digest, recomputed server-side) and then
// sends digest-only batch requests. The cache is strictly per-connection
// — entries die with the connection, at most kMaxCachedSketches live per
// connection — so one router can never read or evict another's sketch and
// a dead client leaks nothing. An upload past the bound is refused with
// rpc::SketchCacheFull, and the client moves on to a fresh connection.
//
// This class is the in-process embedding (tests, benchmarks host real
// socket servers without fork/exec); tools/shard_server.cc is the
// operational CLI around it.

#ifndef JOINMI_DISCOVERY_SHARD_SERVER_H_
#define JOINMI_DISCOVERY_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/admission.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/sharded_index.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/sketch/sketch.h"

namespace joinmi {

struct ShardServerOptions {
  /// Address to bind; loopback by default (serving beyond the host is a
  /// deliberate operator decision).
  std::string host = "127.0.0.1";
  /// Port to bind; 0 binds an ephemeral port reported by port().
  uint16_t port = 0;
  /// Request-worker pool size — the bound on frames being evaluated
  /// simultaneously (across all connections; further frames queue).
  size_t num_workers = 4;
  /// Threads per search evaluation (1 = inline; results never depend on
  /// this).
  size_t eval_threads = 1;
  /// Idle-connection bound: a connection with no bytes either direction
  /// for this long is dropped.
  int io_timeout_ms = 30000;
  /// Buffer-pool budget when serving a paged ("JMPS") shard; 0 keeps the
  /// loader default. Ignored for whole-file shards.
  size_t pool_pages = 0;
  /// Refuse to serve unless the manifest records the shard as paged —
  /// the operator asked for bounded-memory serving, so silently falling
  /// back to full materialization would defeat the point.
  bool require_paged = false;
  /// Batch search frames concurrently queued or executing
  /// before new ones are rejected with kOverloaded + a retry-after hint;
  /// 0 = unbounded (the historical queue-forever behavior). Handshakes,
  /// health probes, sketch uploads, and stats requests always bypass the
  /// gate — they are what a backing-off client needs to keep working.
  size_t max_pending = 0;
  /// The "retry_after_ms=N" hint stamped into overload rejections.
  int retry_after_hint_ms = 50;
};

class ShardServer {
 public:
  /// Per-connection bound on cached sketches; an upload past the bound is
  /// rejected (deterministically — eviction could invalidate a pipelined
  /// batch already in flight).
  static constexpr size_t kMaxCachedSketches = 8;

  /// \brief Loads shard `shard` of the deployment at `manifest_ref` — a
  /// manifest file, a CURRENT pointer file, or a deployment directory
  /// (resolved through ingest::ResolveManifestPath, so the server follows
  /// the published generation) — and prepares a server; call Start() to
  /// bind and serve.
  static Result<std::unique_ptr<ShardServer>> Create(
      const std::string& manifest_ref, size_t shard,
      ShardServerOptions options = {});

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// \brief Binds the listener and starts the event loop.
  Status Start();

  /// \brief Graceful teardown: quiesce (stop accepting/reading), drain
  /// the worker pool, flush pending responses, join the loop. Idempotent
  /// and safe to call from multiple threads concurrently — teardown runs
  /// exactly once and every caller blocks until it finished.
  void Stop();

  /// \brief The bound port (meaningful after Start; resolves port 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }
  size_t shard() const { return shard_; }
  /// \brief The shard's JoinMIConfig. Stable across reloads — Reload()
  /// rejects a generation whose config differs, so every hit this server
  /// ever returns was scored under the same parameters.
  const JoinMIConfig& config() const { return config_; }
  size_t num_candidates() const;

  /// \brief Re-resolves the deployment reference this server was created
  /// from (directory / CURRENT pointer / manifest path) and atomically
  /// swaps in the newest manifest generation. In-flight queries complete
  /// against the client snapshot they took at admission; new frames see
  /// the new generation. Validates shard range, config equality with the
  /// original generation, and require_paged before swapping — a failed
  /// reload leaves the old snapshot serving. Safe to call concurrently
  /// with traffic and with itself (also reachable over the wire via
  /// kReloadRequest).
  Status Reload();

  /// \brief Manifest epoch of the generation currently serving.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// \brief Successful Reload() swaps since Create (counting ones that
  /// re-resolved to the same generation).
  uint64_t reloads_served() const { return reloads_served_->value(); }
  /// \brief Batch search frames answered since Start —
  /// query traffic only; handshakes and health probes have their own
  /// counters below and no longer inflate this.
  uint64_t requests_served() const { return searches_served_->value(); }
  /// \brief Handshakes answered since Start — one per client connection
  /// ever dialed, so this counts distinct connections, not traffic.
  /// Replica drills read it to prove each replica actually took dials.
  uint64_t handshakes_served() const { return handshakes_served_->value(); }
  /// \brief Health probes answered since Start.
  uint64_t health_served() const { return health_served_->value(); }
  /// \brief Sketch uploads accepted or rejected since Start.
  uint64_t sketch_uploads_served() const { return uploads_served_->value(); }
  /// \brief Search frames rejected by the admission gate since Start.
  uint64_t overload_rejections() const { return gate_.rejected(); }
  const AdmissionGate& admission() const { return gate_; }
  /// \brief Currently open serving connections.
  size_t open_connections() const {
    return loop_ ? loop_->open_connections() : 0;
  }

  /// \brief True iff this server answers from a paged shard file (buffer
  /// pool + lazy materialization) rather than an in-memory index. A delta
  /// overlay on a paged base still counts as paged.
  bool serving_paged() const;
  /// \brief Bytes read at startup vs shard file size; meaningful only
  /// when serving_paged(). The operational proof the server did not
  /// materialize the shard.
  storage::PagedOpenStats paged_open_stats() const;
  /// \brief Buffer-pool counters; meaningful only when serving_paged().
  storage::BufferPoolStats pool_stats() const;
  size_t pool_capacity() const;

  /// \brief This server's registry (served over kStatsRequest too).
  metrics::Registry& metrics() const { return registry_; }
  /// \brief One JSON document of every server counter: request counts,
  /// admission gate state, search latency histogram, and — when serving
  /// paged — buffer-pool and startup-read gauges. This is what CI parses
  /// instead of scraping stderr.
  std::string StatsJson() const;

 private:
  ShardServer(std::shared_ptr<const ShardClient> client, uint64_t epoch,
              std::string manifest_ref, size_t shard,
              ShardServerOptions options)
      : client_(std::move(client)), epoch_(epoch),
        manifest_ref_(std::move(manifest_ref)), config_(client_->config()),
        shard_(shard), options_(std::move(options)),
        gate_(options_.max_pending, options_.retry_after_hint_ms) {
    searches_served_ = registry_.GetCounter("server.searches");
    handshakes_served_ = registry_.GetCounter("server.handshakes");
    health_served_ = registry_.GetCounter("server.health_probes");
    uploads_served_ = registry_.GetCounter("server.sketch_uploads");
    stats_served_ = registry_.GetCounter("server.stats_requests");
    reloads_served_ = registry_.GetCounter("server.reloads");
    search_latency_ = registry_.GetHistogram("server.search.latency_us");
  }

  /// The client generation currently serving. Each frame takes one
  /// snapshot at admission and evaluates entirely against it, so a
  /// concurrent Reload never changes a response mid-flight; the old
  /// generation is freed when its last in-flight query drops the ref.
  std::shared_ptr<const ShardClient> Snapshot() const;

  /// Runs on a worker thread: decode, evaluate, queue the reply.
  void HandleFrame(net::EventLoop::ConnId conn, net::Frame frame);
  /// Answers `request` under its request id.
  void Reply(net::EventLoop::ConnId conn, const net::Frame& request,
             net::FrameType type, const std::string& payload);
  std::string HandleSketchUpload(net::EventLoop::ConnId conn,
                                 const net::Frame& frame);
  std::string HandleBatchSearch(net::EventLoop::ConnId conn,
                                const net::Frame& frame,
                                const ShardClient& client);

  /// Guards client_ swaps; queries only hold it long enough to copy the
  /// shared_ptr.
  mutable std::mutex client_mutex_;
  std::shared_ptr<const ShardClient> client_;
  /// Epoch of the generation client_ was loaded from.
  std::atomic<uint64_t> epoch_{0};
  /// The deployment reference Create() received, re-resolved verbatim by
  /// every Reload() (so a CURRENT flip is picked up without telling the
  /// server a new path).
  std::string manifest_ref_;
  /// Pinned at Create; Reload() enforces equality.
  JoinMIConfig config_;
  size_t shard_ = 0;
  ShardServerOptions options_;

  /// Bounds search frames queued + executing; declared after options_
  /// (its limits come from there).
  AdmissionGate gate_;
  mutable metrics::Registry registry_;
  // The per-request counters, absorbed into the registry (the ad-hoc
  // atomics they replaced lived here); pointers are stable for the
  // registry's lifetime.
  metrics::Counter* searches_served_ = nullptr;
  metrics::Counter* handshakes_served_ = nullptr;
  metrics::Counter* health_served_ = nullptr;
  metrics::Counter* uploads_served_ = nullptr;
  metrics::Counter* stats_served_ = nullptr;
  metrics::Counter* reloads_served_ = nullptr;
  metrics::Histogram* search_latency_ = nullptr;
  /// Serializes Reload() bodies (the swap itself is under client_mutex_;
  /// this keeps two concurrent reloads from racing load-then-swap and
  /// installing the older generation last).
  std::mutex reload_mutex_;

  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<ThreadPool> workers_;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::once_flag stop_once_;

  // Per-connection uploaded-sketch cache, digest-keyed. shared_ptr lets a
  // batch evaluation hold its sketch outside the lock while the loop
  // thread erases the connection's entry.
  std::mutex cache_mutex_;
  std::unordered_map<net::EventLoop::ConnId,
                     std::map<uint64_t, std::shared_ptr<const Sketch>>>
      sketch_cache_;
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SHARD_SERVER_H_
