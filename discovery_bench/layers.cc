#include "layers.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <thread>
#include <unordered_map>

#include "src/discovery/paged_shard_index.h"
#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/sharded_index.h"
#include "src/sketch/builder.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
#include "src/storage/paged_shard_file.h"

namespace joinmi {
namespace dbench {

namespace {

// Probe spans get request ids above any load request's.
constexpr uint64_t kProbeRequestBase = uint64_t{1} << 40;
// Queries each probe asks; a v2 connection holds at most 8 sketches, so
// the probes that open their own connection ask at most 8.
constexpr size_t kProbeQueries = 16;
constexpr size_t kConnectionQueries = 8;

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

class Prober {
 public:
  Prober(const LayerInputs& in, std::vector<Metric>* metrics)
      : in_(in), metrics_(metrics), config_(in.full->config()) {}

  Status Run() {
    JOINMI_RETURN_NOT_OK(PrepareQueries());
    ProbeSketch();
    ProbeLoadPhase();
    JOINMI_RETURN_NOT_OK(ProbeIndex());
    JOINMI_RETURN_NOT_OK(ProbeMI());
    JOINMI_RETURN_NOT_OK(ProbeFanoutAndRouter());
    JOINMI_RETURN_NOT_OK(ProbeStorageAndNet());
    JOINMI_RETURN_NOT_OK(ProbeIngest());
    ProbeSetup();
    JOINMI_RETURN_NOT_OK(ProbeRecall());
    return Status::OK();
  }

 private:
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    return TimeSpan(in_.tracer, next_request_++, name, std::forward<Fn>(fn));
  }

  void Report(const std::string& name, double value, const std::string& unit) {
    metrics_->push_back(Metric{name, value, unit});
  }

  // The first distinct queries of the request stream, sketched.
  Status PrepareQueries() {
    for (size_t i = 0; query_ids_.size() < kProbeQueries &&
                       query_ids_.size() < in_.data->queries.size();
         ++i) {
      const size_t q = in_.data->QueryAt(i);
      if (std::find(query_ids_.begin(), query_ids_.end(), q) ==
          query_ids_.end()) {
        query_ids_.push_back(q);
      }
    }
    for (size_t q : query_ids_) {
      JOINMI_ASSIGN_OR_RETURN(
          JoinMIQuery query,
          JoinMIQuery::Create(*in_.data->queries[q], "K", "Y", config_));
      queries_.push_back(std::move(query));
    }
    return Status::OK();
  }

  void ProbeSketch() {
    Report("sketch.query_build_ms",
        Median(in_.tracer->DurationsMs("sketch.query_build")), "ms");
    // Candidate sketches of the first column pairs, built the way
    // SketchIndex::AddCandidate builds them.
    const TableRepository repository = MakeRepository(*in_.data, 0, 48);
    auto builder =
        MakeSketchBuilder(config_.sketch_method, config_.sketch_options());
    std::vector<double> build_ms;
    for (const ColumnPairRef& ref : repository.ExtractColumnPairs()) {
      auto table = repository.GetTable(ref.table_name);
      if (!table.ok()) continue;
      auto key = (*table)->GetColumn(ref.key_column);
      auto value = (*table)->GetColumn(ref.value_column);
      if (!key.ok() || !value.ok()) continue;
      build_ms.push_back(Time("sketch.candidate_build", [&] {
        (void)builder->SketchCandidate(**key, **value, config_.aggregation);
      }));
    }
    Report("sketch.candidate_build_ms", Median(build_ms), "ms");
  }

  // Numbers the load phase itself measured.
  void ProbeLoadPhase() {
    const PhaseResult& phase = *in_.phase;
    Report("discovery.router.search_query_ms",
        Median(in_.tracer->DurationsMs("router.search_query")), "ms");
    const uint64_t hits = phase.cache_after.hits - phase.cache_before.hits;
    const uint64_t misses =
        phase.cache_after.misses - phase.cache_before.misses;
    Report("discovery.router.cache_hit_rate",
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");
    std::vector<double> late;
    if (in_.spec->rate > 0.0) {
      for (const RequestRecord& record : phase.records) {
        late.push_back(record.late_ms);
      }
    } else if (phase.ingest.has_value()) {
      late = phase.ingest->late_ms;
    }
    Report("load.late_ms_p90", Quantile(late, 0.9), "ms");

    // Tracing health: traced requests against the untraced ones beside
    // them, both as service time (send to answer).
    std::vector<double> untraced;
    for (const RequestRecord& record : phase.records) {
      if (!record.traced && record.ok) {
        untraced.push_back(record.end_ms - record.start_ms);
      }
    }
    const double root = Median(in_.tracer->DurationsMs("query"));
    Report("trace.overhead_ratio", Ratio(root, Median(untraced)), "ratio");
    Report("trace.stage_sum_ratio", in_.tracer->ChildShare("query"), "ratio");
  }

  Status ProbeIndex() {
    const SketchIndex& full = *in_.full;
    const size_t n = full.size();
    // A copy whose min_join_size no join reaches: EvaluateAll on it is the
    // merge-probe kernel alone.
    JoinMIConfig probe_config = config_;
    probe_config.min_join_size = std::numeric_limits<size_t>::max();
    SketchIndex half(probe_config);
    SketchIndex probe_only(probe_config);
    Status status = Status::OK();
    const double half_ms = Time("discovery.index.add_half", [&] {
      for (size_t i = 0; i < n / 2 && status.ok(); ++i) {
        status = half.AddSketch(full.candidates()[i].ref,
                                full.candidates()[i].sketch());
      }
    });
    JOINMI_RETURN_NOT_OK(status);
    const double full_ms = Time("discovery.index.add_full", [&] {
      for (size_t i = 0; i < n && status.ok(); ++i) {
        status = probe_only.AddSketch(full.candidates()[i].ref,
                                      full.candidates()[i].sketch());
      }
    });
    JOINMI_RETURN_NOT_OK(status);
    Report("discovery.index.add_s_half", half_ms / 1000.0, "s");
    Report("discovery.index.add_s_full", full_ms / 1000.0, "s");
    Report("discovery.index.add_growth", Ratio(full_ms, half_ms), "ratio");

    std::vector<double> x1;
    std::vector<double> x4;
    std::vector<double> probe_ns;
    std::vector<double> evaluated;
    std::vector<double> samples;
    for (const JoinMIQuery& query : queries_) {
      Result<IndexEvaluation> evaluation = Status::UnknownError("unset");
      x1.push_back(Time("discovery.index.evaluate_x1",
                        [&] { evaluation = full.EvaluateAll(query, 1); }));
      JOINMI_RETURN_NOT_OK(evaluation.status());
      evaluated.push_back(static_cast<double>(evaluation->num_evaluated));
      for (const auto& estimate : evaluation->estimates) {
        if (estimate.has_value()) {
          samples.push_back(static_cast<double>(estimate->sample_size));
        }
      }
      x4.push_back(Time("discovery.index.evaluate_x4", [&] {
        evaluation = full.EvaluateAll(query, 4);
      }));
      JOINMI_RETURN_NOT_OK(evaluation.status());
      const double ms = Time("discovery.index.probe_only", [&] {
        evaluation = probe_only.EvaluateAll(query, 1);
      });
      JOINMI_RETURN_NOT_OK(evaluation.status());
      probe_ns.push_back(ms * 1e6 /
                         static_cast<double>(std::max<size_t>(1, n)));
    }
    evaluate_x1_ms_ = Median(x1);
    const double x4_ms = Median(x4);
    Report("discovery.index.evaluate_ms_x1", evaluate_x1_ms_, "ms");
    Report("discovery.index.evaluate_ms_x4", x4_ms, "ms");
    Report("discovery.index.thread_scaling", Ratio(evaluate_x1_ms_, x4_ms),
        "ratio");
    Report("discovery.index.cands_per_core_s",
        Ratio(static_cast<double>(n), 4.0 * x4_ms / 1000.0), "1/s");
    Report("discovery.index.probe_ns_per_candidate", Median(probe_ns), "ns");
    Report("discovery.index.evaluated_share",
        Ratio(Mean(evaluated), static_cast<double>(n)), "ratio");
    Report("mi.estimates_per_query", Mean(evaluated), "count");
    Report("mi.samples_per_estimate", Mean(samples), "count");

    // Shard 0 of the deployment's round-robin split, as a whole file.
    SketchIndex shard(config_);
    for (size_t i = 0; i < n; ++i) {
      const IndexedCandidate& candidate = full.candidates()[i];
      if (AssignShard(ShardPartitionPolicy::kRoundRobin, i, candidate.ref,
                      kShards) != 0) {
        continue;
      }
      JOINMI_RETURN_NOT_OK(shard.AddSketch(candidate.ref, candidate.sketch()));
      shard_globals_.push_back(i);
      shard_records_.push_back(
          EncodeCandidateRecord(candidate.ref, candidate.sketch()));
    }
    shard_path_ = in_.work_dir + "/shard0.jmix";
    JOINMI_RETURN_NOT_OK(WriteIndexFile(shard, shard_path_));
    std::vector<double> load_ms;
    for (int rep = 0; rep < 3; ++rep) {
      Result<SketchIndex> loaded = Status::UnknownError("unset");
      load_ms.push_back(Time("discovery.index.load",
                             [&] { loaded = ReadIndexFile(shard_path_); }));
      JOINMI_RETURN_NOT_OK(loaded.status());
    }
    Report("discovery.index.load_ms", Median(load_ms), "ms");
    return Status::OK();
  }

  // The estimator alone: each candidate's sketch join is recovered with
  // JoinSketches, then only the scoring call is timed.
  Status ProbeMI() {
    std::map<MIEstimatorKind, std::vector<double>> by_kind;
    std::vector<double> per_query_ms;
    const size_t probed = std::min<size_t>(4, queries_.size());
    for (size_t q = 0; q < probed; ++q) {
      double total_ms = 0.0;
      for (const IndexedCandidate& candidate : in_.full->candidates()) {
        auto joined =
            JoinSketches(queries_[q].train_sketch(), candidate.sketch());
        JOINMI_RETURN_NOT_OK(joined.status());
        if (joined->join_size < config_.min_join_size) continue;
        Result<SketchMIResult> scored = Status::UnknownError("unset");
        const double ms = Time("mi.estimate", [&] {
          scored = ScoreSketchJoinSample(joined->sample, joined->join_size,
                                         config_.estimator,
                                         config_.mi_options,
                                         config_.min_join_size);
        });
        if (!scored.ok()) continue;
        total_ms += ms;
        by_kind[scored->estimator].push_back(ms * 1000.0);
      }
      per_query_ms.push_back(total_ms);
    }
    Report("mi.estimate_us.mle", Median(by_kind[MIEstimatorKind::kMLE]), "us");
    Report("mi.estimate_us.mixed_ksg",
        Median(by_kind[MIEstimatorKind::kMixedKSG]), "us");
    Report("mi.estimate_us.dc_ksg", Median(by_kind[MIEstimatorKind::kDCKSG]),
        "us");
    const double mi_ms = Median(per_query_ms);
    Report("mi.ms_per_query", mi_ms, "ms");
    Report("mi.share_of_evaluate", Ratio(mi_ms, evaluate_x1_ms_), "ratio");
    return Status::OK();
  }

  // A second router over the same deployment, so its cache starts empty:
  // the first ask of a query is a miss, the second a hit.
  Status ProbeFanoutAndRouter() {
    JOINMI_ASSIGN_OR_RETURN(std::unique_ptr<Router> router,
                            Router::Open(in_.deployment->router_options));
    const ShardedSketchIndex& index = router->index();
    const size_t shard_threads = std::max<size_t>(
        1, std::max(1u, std::thread::hardware_concurrency()) /
               index.num_shards());
    std::vector<double> miss, hit, fanout, max_shard, overhead, skew;
    const size_t asked = std::min(
        queries_.size(),
        in_.spec->remote_paged ? kConnectionQueries : kProbeQueries);
    for (size_t q = 0; q < asked; ++q) {
      const JoinMIQuery& query = queries_[q];
      Status status = Status::OK();
      // The first search of a query on this router's connections also
      // uploads its sketch to remote shards; it is not part of any metric.
      Time("discovery.fanout.first_search", [&] {
        status = index.Search(query, kTopK, 0).status();
      });
      JOINMI_RETURN_NOT_OK(status);
      auto search_query = [&] {
        status = router->SearchQuery(query, kTopK, 0, ShardQueryMode::kStrict)
                     .status();
      };
      miss.push_back(Time("router.search_query.miss", search_query));
      JOINMI_RETURN_NOT_OK(status);
      hit.push_back(Time("router.search_query.hit", search_query));
      JOINMI_RETURN_NOT_OK(status);
      fanout.push_back(Time("discovery.fanout.search", [&] {
        status = index.Search(query, kTopK, 0).status();
      }));
      JOINMI_RETURN_NOT_OK(status);
      double slowest = 0.0;
      double sum = 0.0;
      for (size_t s = 0; s < index.num_shards(); ++s) {
        const double ms = Time("discovery.fanout.shard", [&] {
          status = index.client(s).Search(query, kTopK, shard_threads)
                       .status();
        });
        JOINMI_RETURN_NOT_OK(status);
        slowest = std::max(slowest, ms);
        sum += ms;
      }
      max_shard.push_back(slowest);
      overhead.push_back(fanout.back() - slowest);
      skew.push_back(
          Ratio(slowest, sum / static_cast<double>(index.num_shards())));
    }
    Report("discovery.fanout.search_ms", Median(fanout), "ms");
    Report("discovery.fanout.max_shard_ms", Median(max_shard), "ms");
    Report("discovery.fanout.overhead_ms", Median(overhead), "ms");
    Report("discovery.fanout.shard_skew", Median(skew), "ratio");
    std::vector<double> router_overhead;
    for (size_t q = 0; q < miss.size(); ++q) {
      router_overhead.push_back(miss[q] - fanout[q]);
    }
    Report("discovery.router.overhead_ms", Median(router_overhead), "ms");
    Report("discovery.router.cache_hit_ms", Median(hit), "ms");
    return Status::OK();
  }

  // Shard 0 as a paged file behind a buffer pool of the workload's size,
  // as a whole file in memory, and behind a ShardServer on loopback.
  Status ProbeStorageAndNet() {
    JOINMI_ASSIGN_OR_RETURN(
        std::string bytes,
        storage::BuildPagedShardBytes(config_, shard_records_, 4096));
    const std::string paged_path = in_.work_dir + "/shard0.jmps";
    JOINMI_RETURN_NOT_OK(wire::WriteFileBytes(bytes, paged_path));
    PagedShardClient::Options paged_options;
    paged_options.pool_pages = in_.spec->pool_pages;
    std::unique_ptr<PagedShardClient> paged;
    std::vector<double> open_ms;
    for (int rep = 0; rep < 3; ++rep) {
      Status status = Status::OK();
      open_ms.push_back(Time("storage.open", [&] {
        auto opened =
            PagedShardClient::Open(paged_path, shard_globals_, paged_options);
        status = opened.status();
        if (opened.ok()) paged = std::move(*opened);
      }));
      JOINMI_RETURN_NOT_OK(status);
    }
    JOINMI_ASSIGN_OR_RETURN(SketchIndex whole_index,
                            ReadIndexFile(shard_path_));
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<LocalShardClient> whole,
        LocalShardClient::Create(std::move(whole_index), shard_globals_));

    std::vector<double> paged_ms, whole_ms;
    uint64_t hits = 0, misses = 0, evictions = 0;
    for (const JoinMIQuery& query : queries_) {
      Status status = Status::OK();
      const storage::BufferPoolStats before = paged->pool_stats();
      paged_ms.push_back(Time("storage.paged_search", [&] {
        status = paged->Search(query, kTopK, 1).status();
      }));
      JOINMI_RETURN_NOT_OK(status);
      const storage::BufferPoolStats after = paged->pool_stats();
      hits += after.hits - before.hits;
      misses += after.misses - before.misses;
      evictions += after.evictions - before.evictions;
      whole_ms.push_back(Time("storage.whole_search", [&] {
        status = whole->Search(query, kTopK, 1).status();
      }));
      JOINMI_RETURN_NOT_OK(status);
    }
    const double asked = static_cast<double>(queries_.size());
    Report("storage.open_ms", Median(open_ms), "ms");
    Report("storage.paged_shard_search_ms", Median(paged_ms), "ms");
    Report("storage.whole_shard_search_ms", Median(whole_ms), "ms");
    Report("storage.paged_over_whole",
        Ratio(Median(paged_ms), Median(whole_ms)), "ratio");
    Report("storage.pool_hit_rate",
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");
    Report("storage.misses_per_query",
        Ratio(static_cast<double>(misses), asked), "count");
    Report("storage.evictions_per_query",
        Ratio(static_cast<double>(evictions), asked), "count");

    // The same shard served over JMRP by one single-threaded server.
    ScratchDir net_dir(in_.work_dir + "/net");
    JOINMI_ASSIGN_OR_RETURN(SketchIndex served, ReadIndexFile(shard_path_));
    JOINMI_RETURN_NOT_OK(BuildShards(served, 1,
                                     ShardPartitionPolicy::kRoundRobin,
                                     net_dir.path())
                             .status());
    ShardServerOptions server_options;
    server_options.num_workers = 1;
    server_options.eval_threads = 1;
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardServer> server,
        ShardServer::Create(net_dir.path(), 0, server_options));
    JOINMI_RETURN_NOT_OK(server->Start());
    RpcClientOptions client_options;
    client_options.pool_size = 1;
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<RpcShardClient> client,
        RpcShardClient::Create(ShardEndpoint{server->host(), server->port()},
                               config_, served.size(), client_options));
    // Each query's first RPC search also uploads its sketch; the second
    // is timed against an in-process search of the same shard right
    // before it.
    std::vector<double> rpc_ms, net_overhead;
    const size_t connection_queries =
        std::min(queries_.size(), kConnectionQueries);
    for (size_t q = 0; q < connection_queries; ++q) {
      Status status = Status::OK();
      Time("net.first_search", [&] {
        status = client->Search(queries_[q], kTopK, 1).status();
      });
      JOINMI_RETURN_NOT_OK(status);
      const double local_ms = Time("storage.whole_search", [&] {
        status = whole->Search(queries_[q], kTopK, 1).status();
      });
      JOINMI_RETURN_NOT_OK(status);
      rpc_ms.push_back(Time("net.shard_search", [&] {
        status = client->Search(queries_[q], kTopK, 1).status();
      }));
      JOINMI_RETURN_NOT_OK(status);
      net_overhead.push_back(rpc_ms.back() - local_ms);
    }
    client.reset();
    server->Stop();
    Report("net.shard_search_ms", Median(rpc_ms), "ms");
    Report("net.overhead_ms", Median(net_overhead), "ms");
    return Status::OK();
  }

  // The ingest writer's numbers: ingest_serve's own, or for a read-only
  // workload a short unpaced ingest of its last tables into a local
  // deployment of the rest, with a reader beside it.
  Status ProbeIngest() {
    const PhaseResult* phase = in_.phase;
    PhaseResult probe;
    std::unique_ptr<Deployment> deployment;
    if (!phase->ingest.has_value()) {
      WorkloadSpec spec = *in_.spec;
      const size_t tables = spec.num_tables();
      spec.batch_tables =
          std::max<size_t>(1, std::min<size_t>(16, tables / 16));
      spec.base_tables = tables - 4 * spec.batch_tables;
      spec.compact_every = 2;
      spec.remote_paged = false;
      spec.rate = 0.0;
      JOINMI_ASSIGN_OR_RETURN(
          deployment,
          SetUp(spec, MakeRepository(*in_.data, 0, spec.base_tables),
                in_.work_dir + "/ingest"));
      size_t cursor = 0;
      PhaseOptions options;
      options.seconds = 0.0;
      options.cursor = &cursor;
      options.paced_writer = false;
      probe = RunPhase(spec, *in_.data, *deployment, *in_.reference, options);
      if (!probe.wrong.empty()) {
        return Status::UnknownError("ingest probe: " + probe.wrong);
      }
      phase = &probe;
    }
    const IngestRecord& ingest = *phase->ingest;
    Report("ingest.tables_per_s",
        Ratio(static_cast<double>(ingest.tables), ingest.busy_s), "1/s");
    Report("ingest.publish_visible_ms", Median(ingest.visible_ms), "ms");
    Report("ingest.sketch_ms_per_table", Median(ingest.sketch_ms_per_table),
        "ms");
    Report("ingest.append_ms_per_batch", Median(ingest.append_ms), "ms");
    Report("ingest.publish_ms", Median(ingest.publish_ms), "ms");
    Report("ingest.reload_ms", Median(ingest.reload_ms), "ms");
    Report("ingest.compact_ms", Median(ingest.compact_ms), "ms");
    std::vector<RequestRecord> stalled;
    for (const RequestRecord& record : phase->records) {
      for (const auto& [begin, end] : ingest.compactions_ms) {
        if (record.start_ms < end && record.end_ms > begin) {
          stalled.push_back(record);
          break;
        }
      }
    }
    Report("ingest.stall_p90_ms", LatencyQuantile(stalled, 0.9), "ms");
    Report("ingest.bytes_written_per_sketch_byte",
        Ratio(static_cast<double>(ingest.bytes_written),
              static_cast<double>(ingest.sketch_bytes)),
        "ratio");
    std::unordered_map<uint64_t, double> share_by_size;
    for (const auto& [served, share] : ingest.delta_share) {
      share_by_size[served] = share;
    }
    std::vector<double> shares;
    for (const RequestRecord& record : phase->records) {
      if (!record.ok) continue;
      auto it = share_by_size.find(record.served);
      shares.push_back(it == share_by_size.end() ? 0.0 : it->second);
    }
    Report("ingest.delta_share", Mean(shares), "ratio");
    return Status::OK();
  }

  void ProbeSetup() {
    std::vector<double> build, shards, open;
    for (const SetupTimes& times : *in_.setups) {
      build.push_back(times.index_build_s);
      shards.push_back(times.build_shards_s);
      open.push_back(times.open_s);
    }
    Report("setup.index_build_s", Median(build), "s");
    Report("setup.build_shards_s", Median(shards), "s");
    Report("setup.open_s", Median(open), "s");
  }

  // Sketch top-k against the top-k of full-join MI over every candidate.
  Status ProbeRecall() {
    std::unordered_map<std::string, const Table*> tables;
    for (const NamedTable& table : in_.data->tables) {
      tables[table.name] = table.table.get();
    }
    const Reference& reference = *in_.reference;
    const size_t n = reference.num_candidates();
    std::vector<double> recalls;
    const size_t probed = std::min<size_t>(2, query_ids_.size());
    for (size_t p = 0; p < probed; ++p) {
      const Table& query_table = *in_.data->queries[query_ids_[p]];
      std::vector<std::optional<double>> full_mi(n);
      std::atomic<size_t> next{0};
      auto worker = [&] {
        for (size_t i = next++; i < n; i = next++) {
          const ColumnPairRef& ref = reference.ref(i);
          auto estimate = FullJoinMI(
              query_table, *tables.at(ref.table_name),
              JoinMIQuerySpec{"K", "Y", ref.key_column, ref.value_column},
              config_);
          if (estimate.ok()) full_mi[i] = estimate->mi;
        }
      };
      Time("quality.full_join_top_k", [&] {
        std::vector<std::thread> threads;
        for (size_t t = 0; t < 4; ++t) threads.emplace_back(worker);
        for (std::thread& thread : threads) thread.join();
      });
      std::vector<size_t> ranked;
      for (size_t i = 0; i < n; ++i) {
        if (full_mi[i].has_value()) ranked.push_back(i);
      }
      const size_t take = std::min(kTopK, ranked.size());
      std::partial_sort(ranked.begin(), ranked.begin() + take, ranked.end(),
                        [&](size_t a, size_t b) {
                          if (*full_mi[a] != *full_mi[b]) {
                            return *full_mi[a] > *full_mi[b];
                          }
                          return a < b;
                        });
      ranked.resize(take);
      const TopKSearchResult sketched =
          reference.Expected(query_ids_[p], n);
      size_t found = 0;
      for (size_t i : ranked) {
        const std::string want = reference.ref(i).ToString();
        for (const SearchHit& hit : sketched.hits) {
          if (hit.candidate.ToString() == want) {
            ++found;
            break;
          }
        }
      }
      recalls.push_back(take == 0 ? 1.0
                                  : static_cast<double>(found) /
                                        static_cast<double>(take));
    }
    Report("quality.recall_at_10", Mean(recalls), "ratio");
    return Status::OK();
  }

  const LayerInputs& in_;
  std::vector<Metric>* metrics_;
  const JoinMIConfig config_;
  uint64_t next_request_ = kProbeRequestBase;
  std::vector<size_t> query_ids_;
  std::vector<JoinMIQuery> queries_;
  double evaluate_x1_ms_ = 0.0;
  std::vector<uint64_t> shard_globals_;
  std::vector<std::string> shard_records_;
  std::string shard_path_;
};

}  // namespace

Status ProbeLayers(const LayerInputs& in, std::vector<Metric>* metrics) {
  return Prober(in, metrics).Run();
}

}  // namespace dbench
}  // namespace joinmi
