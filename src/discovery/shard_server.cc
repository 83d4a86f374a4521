#include "src/discovery/shard_server.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/core/join_mi.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/shard_manifest.h"
#include "src/ingest/generation.h"
#include "src/sketch/serialize.h"

namespace joinmi {

namespace {

// One loaded serving generation: the verified client plus the manifest
// epoch it came from. Create() and Reload() share this so they can never
// drift in what they validate.
struct LoadedGeneration {
  std::shared_ptr<const ShardClient> client;
  uint64_t epoch = 0;
};

Result<LoadedGeneration> LoadGeneration(const std::string& manifest_ref,
                                        size_t shard,
                                        const ShardServerOptions& options) {
  // The reference may be a deployment directory or a CURRENT pointer —
  // resolve it to the concrete generation being published right now.
  JOINMI_ASSIGN_OR_RETURN(const std::string manifest_path,
                          ingest::ResolveManifestPath(manifest_ref));
  JOINMI_ASSIGN_OR_RETURN(ShardManifest manifest,
                          ReadManifestFile(manifest_path));
  if (shard >= manifest.shards.size()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(shard) +
        " is out of range: the manifest names " +
        std::to_string(manifest.shards.size()) + " shards");
  }
  if (options.require_paged &&
      manifest.shards[shard].format != ShardFileFormat::kPaged) {
    return Status::InvalidArgument(
        "paged serving was required but the manifest records shard " +
        std::to_string(shard) + " ('" + manifest.shards[shard].path +
        "') as a " +
        std::string(ShardFileFormatToString(manifest.shards[shard].format)) +
        "-format file — rebuild with --format paged");
  }
  // The same verified load path the local router uses: whole-file shards
  // are checksum- and count-verified against the manifest entry before
  // anything parses; paged shards open by header + directory and verify
  // page checksums on fault-in. Delta overlays verify the committed
  // segment prefix the manifest pins.
  const std::string manifest_dir =
      std::filesystem::path(manifest_path).parent_path().string();
  LocalShardLoadOptions load_options;
  if (options.pool_pages > 0) load_options.pool_pages = options.pool_pages;
  JOINMI_ASSIGN_OR_RETURN(std::unique_ptr<ShardClient> client,
                          ShardedSketchIndex::LocalFileFactory(load_options)(
                              manifest, shard, manifest_dir));
  LoadedGeneration loaded;
  loaded.client = std::shared_ptr<const ShardClient>(std::move(client));
  loaded.epoch = manifest.epoch;
  return loaded;
}

}  // namespace

Result<std::unique_ptr<ShardServer>> ShardServer::Create(
    const std::string& manifest_ref, size_t shard,
    ShardServerOptions options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("shard server needs at least one worker");
  }
  JOINMI_ASSIGN_OR_RETURN(LoadedGeneration loaded,
                          LoadGeneration(manifest_ref, shard, options));
  return std::unique_ptr<ShardServer>(
      new ShardServer(std::move(loaded.client), loaded.epoch, manifest_ref,
                      shard, std::move(options)));
}

std::shared_ptr<const ShardClient> ShardServer::Snapshot() const {
  std::lock_guard<std::mutex> lock(client_mutex_);
  return client_;
}

Status ShardServer::Reload() {
  // One reload at a time: two concurrent reloads could otherwise load
  // generations N and N+1 and install them in the wrong order.
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  JOINMI_ASSIGN_OR_RETURN(LoadedGeneration loaded,
                          LoadGeneration(manifest_ref_, shard_, options_));
  if (!(loaded.client->config() == config_)) {
    return Status::InvalidArgument(
        "reload refused: the new manifest generation was built under a "
        "different JoinMIConfig than the one this server started with — "
        "mixed-config serving would merge incomparable scores");
  }
  {
    std::lock_guard<std::mutex> lock(client_mutex_);
    client_ = std::move(loaded.client);
  }
  epoch_.store(loaded.epoch, std::memory_order_release);
  reloads_served_->Add();
  return Status::OK();
}

size_t ShardServer::num_candidates() const {
  return Snapshot()->num_candidates();
}

bool ShardServer::serving_paged() const {
  return PagedOf(*Snapshot()) != nullptr;
}

storage::PagedOpenStats ShardServer::paged_open_stats() const {
  auto snapshot = Snapshot();
  const PagedShardClient* paged = PagedOf(*snapshot);
  return paged != nullptr ? paged->open_stats() : storage::PagedOpenStats{};
}

storage::BufferPoolStats ShardServer::pool_stats() const {
  auto snapshot = Snapshot();
  const PagedShardClient* paged = PagedOf(*snapshot);
  return paged != nullptr ? paged->pool_stats() : storage::BufferPoolStats{};
}

size_t ShardServer::pool_capacity() const {
  auto snapshot = Snapshot();
  const PagedShardClient* paged = PagedOf(*snapshot);
  return paged != nullptr ? paged->pool_capacity() : 0;
}

std::string ShardServer::StatsJson() const {
  // Mirror live gauges into the registry (Set, not Add) so the snapshot
  // is one flat document; the hot-path counters are already in it.
  auto snapshot = Snapshot();
  registry_.GetCounter("server.shard")->Set(shard_);
  registry_.GetCounter("server.candidates")->Set(snapshot->num_candidates());
  registry_.GetCounter("server.epoch")
      ->Set(epoch_.load(std::memory_order_acquire));
  registry_.GetCounter("server.connections.open")->Set(open_connections());
  registry_.GetCounter("server.admission.pending")->Set(gate_.pending());
  registry_.GetCounter("server.admission.max_pending")
      ->Set(gate_.max_pending());
  registry_.GetCounter("server.admission.admitted")->Set(gate_.admitted());
  registry_.GetCounter("server.admission.rejected")->Set(gate_.rejected());
  const PagedShardClient* paged = PagedOf(*snapshot);
  registry_.GetCounter("server.paged")->Set(paged != nullptr ? 1 : 0);
  if (paged != nullptr) {
    const storage::PagedOpenStats open = paged->open_stats();
    registry_.GetCounter("server.paged.startup_bytes_read")
        ->Set(open.startup_bytes_read);
    registry_.GetCounter("server.paged.file_size")->Set(open.file_size);
    const storage::BufferPoolStats pool = paged->pool_stats();
    registry_.GetCounter("server.pool.hits")->Set(pool.hits);
    registry_.GetCounter("server.pool.misses")->Set(pool.misses);
    registry_.GetCounter("server.pool.evictions")->Set(pool.evictions);
    registry_.GetCounter("server.pool.capacity")->Set(paged->pool_capacity());
  }
  return registry_.SnapshotJson();
}

ShardServer::~ShardServer() { Stop(); }

Status ShardServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("shard server already started");
  }
  JOINMI_ASSIGN_OR_RETURN(net::Listener listener,
                          net::Listener::Bind(options_.host, options_.port));
  port_ = listener.port();
  net::EventLoopOptions loop_options;
  loop_options.idle_timeout_ms = options_.io_timeout_ms;
  JOINMI_ASSIGN_OR_RETURN(
      loop_,
      net::EventLoop::Create(
          std::move(listener),
          [this](net::EventLoop::ConnId conn, net::Frame frame) {
            // Loop thread: never evaluate here. Search frames pass the
            // admission gate FIRST — a rejection is answered directly
            // from the loop (one EncodeErrorPayload, no worker slot), so
            // an overloaded server keeps shedding load at wire speed
            // instead of queueing the rejections themselves. Everything
            // else (handshake, health, upload, stats, reload) bypasses
            // the gate: it is exactly what a backing-off client needs.
            AdmissionGate::Ticket ticket;
            if (frame.type == net::FrameType::kSearchRequest) {
              auto admitted = gate_.TryEnter();
              if (!admitted.ok()) {
                loop_->Send(conn, net::EncodeFrame(
                                      net::FrameType::kError,
                                      frame.request_id,
                                      rpc::EncodeErrorPayload(
                                          admitted.status())));
                return;
              }
              ticket = std::move(*admitted);
            }
            // The ticket rides to the worker and releases when the frame
            // is fully handled — pending counts queued AND executing.
            {
              std::lock_guard<std::mutex> lock(work_mutex_);
              work_queue_.push_back(
                  PendingFrame{conn, std::move(frame), std::move(ticket)});
            }
            work_ready_.notify_one();
          },
          [this](net::EventLoop::ConnId conn) {
            std::lock_guard<std::mutex> lock(cache_mutex_);
            sketch_cache_.erase(conn);
          },
          loop_options));
  const size_t num_workers = std::min(options_.num_workers, kMaxPoolThreads);
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return loop_->Start();
}

void ShardServer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(work_mutex_);
  for (;;) {
    work_ready_.wait(
        lock, [this] { return workers_stopping_ || !work_queue_.empty(); });
    if (work_queue_.empty()) return;  // stopping, and nothing slipped in
    PendingFrame pending = std::move(work_queue_.front());
    work_queue_.pop_front();
    ++frames_running_;
    lock.unlock();
    try {
      HandleFrame(pending.conn, pending.frame);
    } catch (const std::exception& error) {
      // Forwarded, not dropped: the client hears of the failure now
      // instead of waiting out its timeout, and this worker keeps serving.
      Reply(pending.conn, pending.frame, net::FrameType::kError,
            rpc::EncodeErrorPayload(Status::UnknownError(
                std::string("shard server failed to handle a ") +
                net::FrameTypeToString(pending.frame.type) + " frame: " +
                error.what())));
    }
    pending.ticket.Release();
    lock.lock();
    if (--frames_running_ == 0 && work_queue_.empty()) {
      work_idle_.notify_all();
    }
  }
}

void ShardServer::Stop() {
  // call_once serializes concurrent Stop() calls: one thread tears down,
  // the rest block until it finished — never a double-join.
  std::call_once(stop_once_, [this] {
    if (loop_ == nullptr) return;  // never started
    // Phase 1: stop accepting and reading, so no new frames arrive.
    loop_->Quiesce();
    // Phase 2: drain the queue (the workers' replies queue into the loop).
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_idle_.wait(lock, [this] {
        return work_queue_.empty() && frames_running_ == 0;
      });
    }
    // Phase 3: flush queued responses, then join the loop thread. After
    // this no frame callback can run, so no new frame can be queued.
    loop_->Stop(/*flush_timeout_ms=*/1000);
    // Phase 4: a frame read just before quiesce took effect may have
    // slipped into the queue past phase 2; the workers run it before they
    // exit (its reply is dropped by the stopped loop — indistinguishable
    // from a crash mid-send, which clients already handle).
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      workers_stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    std::lock_guard<std::mutex> lock(cache_mutex_);
    sketch_cache_.clear();
  });
}

void ShardServer::Reply(net::EventLoop::ConnId conn,
                        const net::Frame& request, net::FrameType type,
                        const std::string& payload) {
  loop_->Send(conn, net::EncodeFrame(type, request.request_id, payload));
}

void ShardServer::HandleFrame(net::EventLoop::ConnId conn,
                              const net::Frame& frame) {
  // Admission-time snapshot: this frame evaluates entirely against the
  // generation serving when its worker picked it up, even if a Reload
  // swaps the client mid-evaluation.
  const std::shared_ptr<const ShardClient> snapshot = Snapshot();
  switch (frame.type) {
    case net::FrameType::kHandshakeRequest: {
      handshakes_served_->Add();
      rpc::HandshakeResponse response;
      response.config = snapshot->config();
      response.num_candidates = snapshot->num_candidates();
      Reply(conn, frame, net::FrameType::kHandshakeResponse,
            rpc::EncodeHandshakeResponse(response));
      return;
    }
    case net::FrameType::kHealthRequest: {
      health_served_->Add();
      rpc::HealthResponse response;
      response.num_candidates = snapshot->num_candidates();
      response.requests_served = searches_served_->value();
      Reply(conn, frame, net::FrameType::kHealthResponse,
            rpc::EncodeHealthResponse(response));
      return;
    }
    case net::FrameType::kSketchUploadRequest: {
      uploads_served_->Add();
      Reply(conn, frame, net::FrameType::kSketchUploadResponse,
            HandleSketchUpload(conn, frame, *snapshot));
      return;
    }
    case net::FrameType::kSearchRequest: {
      searches_served_->Add();
      metrics::ScopedTimer timer(search_latency_);
      Reply(conn, frame, net::FrameType::kSearchResponse,
            HandleSearch(conn, frame, *snapshot));
      return;
    }
    case net::FrameType::kStatsRequest: {
      stats_served_->Add();
      rpc::StatsResponse response;
      response.status = Status::OK();
      response.json = StatsJson();
      Reply(conn, frame, net::FrameType::kStatsResponse,
            rpc::EncodeStatsResponse(response));
      return;
    }
    case net::FrameType::kReloadRequest: {
      rpc::ReloadResponse response;
      response.status = Reload();
      if (response.status.ok()) {
        auto reloaded = Snapshot();
        response.epoch = epoch();
        response.num_candidates = reloaded->num_candidates();
      }
      Reply(conn, frame, net::FrameType::kReloadResponse,
            rpc::EncodeReloadResponse(response));
      return;
    }
    default: {
      Reply(conn, frame, net::FrameType::kError,
            rpc::EncodeErrorPayload(Status::InvalidArgument(
                std::string("shard server cannot handle a ") +
                net::FrameTypeToString(frame.type) + " frame")));
      return;
    }
  }
}

std::string ShardServer::HandleSketchUpload(net::EventLoop::ConnId conn,
                                            const net::Frame& frame,
                                            const ShardClient& client) {
  rpc::SketchUploadResponse response;
  auto run = [&]() -> Status {
    JOINMI_ASSIGN_OR_RETURN(rpc::SketchUploadRequest request,
                            rpc::DecodeSketchUploadRequest(frame.payload));
    response.digest = request.digest;
    const uint64_t computed = wire::Checksum64(request.train_sketch);
    if (computed != request.digest) {
      return Status::InvalidArgument(
          "sketch upload digest mismatch: declared " +
          std::to_string(request.digest) + ", bytes hash to " +
          std::to_string(computed));
    }
    // Build the query now, under the shard's config, so a corrupt or
    // incompatible sketch is rejected at upload time and a search frame
    // finds its train runs ready.
    JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                            DeserializeSketch(request.train_sketch));
    JOINMI_ASSIGN_OR_RETURN(
        JoinMIQuery query,
        JoinMIQuery::FromTrainSketch(std::move(sketch), client.config()));
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto& cache = sketch_cache_[conn];
    if (cache.count(request.digest) > 0) return Status::OK();  // idempotent
    if (cache.size() >= kMaxCachedSketches) {
      return rpc::SketchCacheFull(kMaxCachedSketches);
    }
    cache.emplace(request.digest,
                  std::make_shared<const JoinMIQuery>(std::move(query)));
    return Status::OK();
  };
  response.status = run();
  return rpc::EncodeSketchUploadResponse(response);
}

std::string ShardServer::HandleSearch(net::EventLoop::ConnId conn,
                                      const net::Frame& frame,
                                      const ShardClient& client) {
  rpc::SearchResponse response;
  auto run = [&]() -> Result<TopKSearchResult> {
    JOINMI_ASSIGN_OR_RETURN(rpc::SearchRequest request,
                            rpc::DecodeSearchRequest(frame.payload));
    std::shared_ptr<const JoinMIQuery> query;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto conn_cache = sketch_cache_.find(conn);
      if (conn_cache != sketch_cache_.end()) {
        auto entry = conn_cache->second.find(request.sketch_digest);
        if (entry != conn_cache->second.end()) query = entry->second;
      }
    }
    if (query == nullptr) {
      return Status::InvalidArgument(
          "search names sketch digest " +
          std::to_string(request.sketch_digest) +
          " which was never uploaded on this connection");
    }
    JoinMIConfig query_config = client.config();
    query_config.min_join_size = static_cast<size_t>(request.min_join_size);
    if (!(query->config() == query_config)) {
      // Another floor than the cached query's, or a reloaded shard's
      // config: this frame gets a query of its own.
      JOINMI_ASSIGN_OR_RETURN(
          JoinMIQuery rebuilt,
          JoinMIQuery::FromTrainSketch(query->train_sketch(), query_config));
      query = std::make_shared<const JoinMIQuery>(std::move(rebuilt));
    }
    return client.Search(*query, static_cast<size_t>(request.k),
                         options_.eval_threads);
  };
  auto result = run();
  if (result.ok()) {
    response.result = std::move(*result);
  } else {
    response.status = result.status();
  }
  return rpc::EncodeSearchResponse(response);
}

}  // namespace joinmi
