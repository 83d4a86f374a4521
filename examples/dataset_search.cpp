// Dataset search over a simulated open-data repository.
//
// Deployment shape from the paper's introduction: sketch every candidate
// column pair of a repository offline, then answer "which tables, joined to
// my table, tell me the most about my target?" online — touching only
// sketches, never the repository's raw rows.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/admission.h"
#include "src/common/random.h"
#include "src/discovery/opendata_sim.h"
#include "src/discovery/ranking.h"
#include "src/discovery/replica_router.h"  // ReadShardEndpoints (reporting)
#include "src/discovery/repository.h"
#include "src/discovery/router.h"
#include "src/discovery/search.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/discovery/topk_merge.h"
#include "src/sketch/serialize.h"

using namespace joinmi;

int main(int argc, char** argv) {
  // --keep-index PATH persists the index there (and keeps it) so CI can
  // chain the build_shards tool onto this example's output.
  //
  // --rpc-manifest M --rpc-endpoints E run the same search through
  // RpcShardClient against already-running shard servers and drift-check
  // it against the unsharded answer; --rpc-expect-down N instead asserts
  // that exactly N shards are down: strict mode must fail and degraded
  // mode must return the surviving shards' correctly merged top-k. This
  // is the CI serving end-to-end (generation is fully deterministic, so a
  // rerun probes the same index the servers loaded).
  //
  // --rpc-replica-endpoints E reads a v2 (replicated) endpoints file and
  // routes through ReplicaShardClient instead; --rpc-loop N issues N
  // strict drift-checked queries 200ms apart, so a harness can kill a
  // replica MID-RUN and this process proves failover: every query must
  // keep matching the unsharded answer with zero shard failures.
  //
  // --rpc-pipeline-drill N (with --rpc-endpoints) opens ONE connection
  // per shard and fires N strict queries from N concurrent threads, so
  // every request shares that connection via JMRP pipelining; each
  // ranking is diffed against the unsharded answer and the exit code
  // reflects any divergence.
  //
  // Every sharded/remote deployment below assembles through ONE entry
  // point: discovery::Router::Open. The router adds a result cache (the
  // repeat-query check asserts a hit stays bit-identical) and admission
  // control; --overload-drill N fires rounds of N concurrent queries
  // until at least one is shed with a structured kOverloaded + a
  // retry_after_ms hint, while every admitted query must still match the
  // unsharded answer exactly. --router-max-pending M arms the router-side
  // gate for that drill (without it, rejections must come from a shard
  // server started with --max-pending). --stats-json PATH writes the
  // router's metrics snapshot at exit.
  std::string keep_index_path;
  std::string rpc_manifest_path;
  std::string rpc_endpoints_path;
  std::string rpc_replica_endpoints_path;
  std::string stats_json_path;
  long rpc_expect_down = 0;
  long rpc_loop = 1;
  long limit_index = 0;
  long rpc_pipeline_drill = 0;
  long overload_drill = 0;
  long router_max_pending = 0;
  for (int arg = 1; arg < argc; ++arg) {
    const bool has_value = arg + 1 < argc;
    if (std::strcmp(argv[arg], "--keep-index") == 0 && has_value) {
      keep_index_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--rpc-manifest") == 0 && has_value) {
      rpc_manifest_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--rpc-endpoints") == 0 && has_value) {
      rpc_endpoints_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--rpc-replica-endpoints") == 0 &&
               has_value) {
      rpc_replica_endpoints_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--rpc-loop") == 0 && has_value) {
      char* end = nullptr;
      rpc_loop = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || rpc_loop < 1 ||
          rpc_loop > 100000) {
        std::fprintf(stderr, "--rpc-loop must be a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[arg], "--rpc-expect-down") == 0 &&
               has_value) {
      char* end = nullptr;
      rpc_expect_down = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || rpc_expect_down < 1 ||
          rpc_expect_down > 100000) {
        std::fprintf(stderr,
                     "--rpc-expect-down must be a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[arg], "--rpc-pipeline-drill") == 0 &&
               has_value) {
      char* end = nullptr;
      rpc_pipeline_drill = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || rpc_pipeline_drill < 1 ||
          rpc_pipeline_drill > 1024) {
        std::fprintf(stderr,
                     "--rpc-pipeline-drill must be in [1, 1024]\n");
        return 2;
      }
    } else if (std::strcmp(argv[arg], "--overload-drill") == 0 &&
               has_value) {
      char* end = nullptr;
      overload_drill = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || overload_drill < 2 ||
          overload_drill > 256) {
        std::fprintf(stderr, "--overload-drill must be in [2, 256]\n");
        return 2;
      }
    } else if (std::strcmp(argv[arg], "--router-max-pending") == 0 &&
               has_value) {
      char* end = nullptr;
      router_max_pending = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || router_max_pending < 0) {
        std::fprintf(stderr,
                     "--router-max-pending must be a non-negative "
                     "integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[arg], "--stats-json") == 0 && has_value) {
      stats_json_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--limit-index") == 0 && has_value) {
      char* end = nullptr;
      limit_index = std::strtol(argv[++arg], &end, 10);
      if (end == argv[arg] || *end != '\0' || limit_index < 1) {
        std::fprintf(stderr, "--limit-index must be a positive integer\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--keep-index PATH] [--stats-json PATH] "
                   "[--limit-index N] "
                   "[--overload-drill N [--router-max-pending M]] "
                   "[--rpc-manifest PATH "
                   "(--rpc-endpoints PATH [--rpc-expect-down N | "
                   "--rpc-pipeline-drill N] | "
                   "--rpc-replica-endpoints PATH [--rpc-loop N])]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool have_rpc_target =
      !rpc_endpoints_path.empty() || !rpc_replica_endpoints_path.empty();
  if (rpc_manifest_path.empty() != !have_rpc_target) {
    std::fprintf(stderr,
                 "--rpc-manifest and exactly one of --rpc-endpoints / "
                 "--rpc-replica-endpoints go together\n");
    return 2;
  }
  if (!rpc_endpoints_path.empty() && !rpc_replica_endpoints_path.empty()) {
    std::fprintf(stderr,
                 "--rpc-endpoints and --rpc-replica-endpoints are "
                 "mutually exclusive\n");
    return 2;
  }
  if (rpc_expect_down > 0 && rpc_endpoints_path.empty()) {
    std::fprintf(stderr,
                 "--rpc-expect-down drills the single-endpoint router "
                 "(--rpc-endpoints)\n");
    return 2;
  }
  if (rpc_pipeline_drill > 0 &&
      (rpc_endpoints_path.empty() || rpc_expect_down > 0)) {
    std::fprintf(stderr,
                 "--rpc-pipeline-drill drills a healthy single-endpoint "
                 "router (--rpc-endpoints, no --rpc-expect-down)\n");
    return 2;
  }
  if (overload_drill > 0 && router_max_pending == 0 && !have_rpc_target) {
    std::fprintf(stderr,
                 "--overload-drill without an RPC target needs "
                 "--router-max-pending to arm the router's gate (with an "
                 "RPC target, the shard server's --max-pending may reject "
                 "instead)\n");
    return 2;
  }
  // 1. Build a repository out of simulated open-data tables. Each generated
  //    pair contributes its candidate table; we keep one query pair aside.
  OpenDataParams params = NYCLikeParams();
  params.num_pairs = 40;
  params.p_string_value = 0.5;
  // 8 latent families: candidates from the query pair's family genuinely
  // inform its target; the other ~35 tables are noise for this query.
  params.num_families = 8;
  auto pairs_result = GenerateOpenDataCollection(params);
  pairs_result.status().Abort("generating repository");
  auto& pairs = *pairs_result;

  TableRepository repo;
  std::vector<bool> same_family(pairs.size(), false);
  for (size_t i = 1; i < pairs.size(); ++i) {
    repo.AddTable("dataset_" + std::to_string(i), pairs[i].cand)
        .Abort("registering table");
    same_family[i] = pairs[i].family == pairs[0].family;
  }
  std::printf("Repository: %zu tables, %zu candidate column pairs\n",
              repo.num_tables(), repo.ExtractColumnPairs().size());

  // 2. Offline: sketch every candidate column pair.
  JoinMIConfig config;
  config.sketch_method = SketchMethod::kTupsk;
  config.sketch_capacity = 1024;
  config.aggregation = AggKind::kFirst;  // type-safe for mixed repositories
  config.min_join_size = 100;
  SketchIndex index(config);
  auto indexed = index.IndexRepository(repo);
  indexed.status().Abort("indexing repository");
  std::printf("Sketch index: %zu candidate sketches of capacity %zu\n\n",
              *indexed, config.sketch_capacity);

  // --limit-index N keeps only the first N candidates (global insertion
  // order), so the persisted index AND every drift-check reference below
  // describe that prefix. The ingest e2e serves a prefix deployment,
  // appends the tail through ingest_ctl against the full persisted index,
  // and uses this flag to assert pre-swap rankings stay on the old epoch.
  if (limit_index > 0 && static_cast<size_t>(limit_index) < index.size()) {
    SketchIndex limited(config);
    for (size_t i = 0; i < static_cast<size_t>(limit_index); ++i) {
      const IndexedCandidate& candidate = index.candidates()[i];
      limited.AddSketch(candidate.ref, candidate.sketch())
          .Abort("truncating the index");
    }
    index = std::move(limited);
    std::printf("Limited the index to its first %ld candidates "
                "(--limit-index)\n\n", limit_index);
  }

  // 3. Online: the user arrives with their own table (the held-out pair's
  //    train side) and asks for the top augmentations for target Y.
  //    This unsharded index-backed ranking is also the reference every
  //    serving path below must reproduce bit for bit.
  const auto& query_table = pairs[0].train;
  auto unsharded =
      TopKJoinMISearch(*query_table, {"K", "Y"}, index, /*k=*/8);
  unsharded.status().Abort("querying the index");

  std::printf("Top augmentation candidates for target 'Y' (query table has "
              "%zu rows):\n\n", query_table->num_rows());
  std::printf("  %-36s %9s %8s %-9s %s\n", "candidate", "est. MI", "samples",
              "estimator", "ground truth");
  for (const SearchHit& hit : unsharded->hits) {
    // Recover the pair index from the table name to report ground truth.
    const size_t idx =
        static_cast<size_t>(std::stoul(hit.candidate.table_name.substr(8)));
    std::printf("  %-36s %9.3f %8zu %-9s %s\n",
                hit.candidate.ToString().c_str(), hit.estimate.mi,
                hit.estimate.sample_size,
                MIEstimatorKindToString(hit.estimate.estimator),
                same_family[idx] ? "related (same latent family)"
                                 : "unrelated");
  }
  if (unsharded->hits.empty()) {
    std::printf("  (no candidate cleared the %zu-sample join threshold)\n",
                config.min_join_size);
  }
  std::printf(
      "\nEvery score above was computed from two sketches of at most %zu\n"
      "tuples each; no join against the repository was materialized.\n",
      config.sketch_capacity);

  // Bitwise comparison against the unsharded reference ranking — the
  // invariant every serving path in this example must preserve.
  // `check_counters` holds for an answer over this very index, whose hits
  // must also carry the same global indices.
  auto matches_unsharded = [&](const TopKSearchResult& result,
                               bool check_counters) {
    bool same = result.hits.size() == unsharded->hits.size() &&
                result.shard_failures.empty();
    if (check_counters) {
      same = same && result.num_candidates == unsharded->num_candidates &&
             result.num_evaluated == unsharded->num_evaluated &&
             result.num_skipped == unsharded->num_skipped &&
             result.num_errors == unsharded->num_errors;
    }
    for (size_t i = 0; same && i < unsharded->hits.size(); ++i) {
      same = (!check_counters || result.hits[i].global_index ==
                                     unsharded->hits[i].global_index) &&
             result.hits[i].estimate.mi == unsharded->hits[i].estimate.mi &&
             result.hits[i].estimate.sample_size ==
                 unsharded->hits[i].estimate.sample_size &&
             result.hits[i].estimate.estimator ==
                 unsharded->hits[i].estimate.estimator &&
             result.hits[i].candidate.ToString() ==
                 unsharded->hits[i].candidate.ToString();
    }
    return same;
  };

  // 4. Persistence: the index survives a restart. Write it out, load it in
  //    a fresh object, and verify the reloaded index answers identically —
  //    the sketch-once / query-many deployment across processes.
  const std::string index_path =
      keep_index_path.empty() ? "/tmp/joinmi_dataset_search_index." +
                                    std::to_string(getpid()) + ".bin"
                              : keep_index_path;
  WriteIndexFile(index, index_path).Abort("persisting the index");
  auto reloaded = ReadIndexFile(index_path);
  reloaded.status().Abort("reloading the index");
  auto hits_again =
      TopKJoinMISearch(*query_table, {"K", "Y"}, *reloaded, /*k=*/8);
  hits_again.status().Abort("querying the reloaded index");
  const bool identical = matches_unsharded(*hits_again, true);
  std::printf(
      "\nPersisted the index to %s and reloaded it: %zu sketches, "
      "rankings %s.\n",
      index_path.c_str(), reloaded->size(),
      identical ? "identical" : "DIFFER (bug!)");

  // 5. Sharding: partition the index across shard files and serve them
  //    through Router::Open — the one construction path for every sharded
  //    deployment (local files here; host:port endpoints in part 6).
  //    Drift check: the routed ranking must be bit-identical to the
  //    unsharded index-backed search for every shard count and policy,
  //    and a repeated query must be answered from the router's result
  //    cache with the exact same bits.
  const std::string shard_root = "/tmp/joinmi_dataset_search_shards." +
                                 std::to_string(getpid());
  bool drift = false;
  bool cache_ok = true;
  uint64_t cache_hits_total = 0;
  std::string last_manifest_path;
  std::string final_stats;  // last relevant router's metrics snapshot
  for (ShardPartitionPolicy policy : {ShardPartitionPolicy::kRoundRobin,
                                      ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 3u}) {
      const std::string dir = shard_root + "/" +
                              ShardPartitionPolicyToString(policy) + "_" +
                              std::to_string(num_shards);
      auto manifest_path = BuildShards(index, num_shards, policy, dir);
      manifest_path.status().Abort("partitioning the index");
      last_manifest_path = *manifest_path;
      RouterOptions local_options;
      local_options.manifest_path = *manifest_path;
      auto router = Router::Open(local_options);
      router.status().Abort("opening the shard router");
      auto via_router = (*router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
      via_router.status().Abort("routed search");
      const bool same = matches_unsharded(*via_router, true);
      std::printf("drift check  : policy %-12s K=%zu -> %s\n",
                  ShardPartitionPolicyToString(policy), num_shards,
                  same ? "identical to unsharded" : "DRIFT (bug!)");
      if (!same) drift = true;
      // Cache check: the identical query again must be a cache hit AND
      // byte-identical to the first answer (which already matched the
      // unsharded reference).
      auto repeat = (*router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
      repeat.status().Abort("repeated routed search");
      const RouterCacheStats cache = (*router)->cache_stats();
      if (cache.hits < 1 || !matches_unsharded(*repeat, true)) {
        cache_ok = false;
      }
      cache_hits_total += cache.hits;
      final_stats = (*router)->StatsJson();
    }
  }
  std::printf("cache check  : repeated queries served from the router "
              "cache (%llu hits across 4 deployments), bit-identical -> "
              "%s\n",
              static_cast<unsigned long long>(cache_hits_total),
              cache_ok ? "ok" : "CACHE BROKE (bug!)");

  // 6. Networked serving (only when CI or an operator points us at live
  //    shard servers): the same query through RpcShardClient. Healthy
  //    deployments must be drift-free vs. the unsharded index; partially
  //    down deployments must fail strict queries and answer degraded ones
  //    with exactly the surviving shards' merged top-k.
  bool rpc_ok = true;
  if (!rpc_replica_endpoints_path.empty()) {
    // 6b. Replicated serving drill: the endpoints file maps every shard to
    //     its replicas; Router::Open sees the multi-replica lines and
    //     assembles failover-capable replica clients behind the same
    //     facade. The result cache is OFF for this drill — every loop
    //     iteration must actually cross the wire, or a mid-run replica
    //     kill would be masked by a cached answer. Each iteration is a
    //     STRICT query that must match the unsharded answer with zero
    //     shard failures — run with --rpc-loop under a harness that kills
    //     a replica midway and this exits nonzero unless failover
    //     absorbed the outage.
    auto replica_map = ReadShardEndpoints(rpc_replica_endpoints_path);
    replica_map.status().Abort("reading the replica endpoints file");
    size_t replicas_total = 0;
    for (const auto& row : *replica_map) replicas_total += row.size();
    RouterOptions replica_options;
    replica_options.manifest_path = rpc_manifest_path;
    replica_options.replica_endpoints = *replica_map;
    replica_options.serving.cooldown_ms = 500;
    replica_options.cache_entries = 0;
    auto rpc_router = Router::Open(replica_options);
    rpc_router.status().Abort("opening the replicated router");
    long matched = 0;
    for (long q = 0; q < rpc_loop; ++q) {
      if (q > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      auto via_rpc =
          (*rpc_router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
      if (!via_rpc.ok()) {
        std::printf("replica drill: strict query %ld/%ld FAILED: %s\n",
                    q + 1, rpc_loop, via_rpc.status().ToString().c_str());
        rpc_ok = false;
        continue;
      }
      if (matches_unsharded(*via_rpc, false)) {
        ++matched;
      } else {
        rpc_ok = false;
      }
    }
    std::printf("replica drill: %ld/%ld strict queries identical to "
                "unsharded with zero shard failures (%zu shards, %zu "
                "replica servers) -> %s\n",
                matched, rpc_loop, (*rpc_router)->num_shards(),
                replicas_total,
                matched == rpc_loop ? "ok" : "FAILOVER FAILED (bug!)");
    final_stats = (*rpc_router)->StatsJson();
  } else if (!rpc_manifest_path.empty()) {
    RouterOptions rpc_options;
    rpc_options.manifest_path = rpc_manifest_path;
    rpc_options.endpoints_path = rpc_endpoints_path;
    auto rpc_router = Router::Open(rpc_options);
    rpc_router.status().Abort("opening the RPC-backed router");

    if (rpc_expect_down == 0) {
      auto via_rpc =
          (*rpc_router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
      via_rpc.status().Abort("RPC-backed search");
      const bool same = matches_unsharded(*via_rpc, false);
      std::printf("rpc check    : %zu shards over loopback -> %s\n",
                  (*rpc_router)->num_shards(),
                  same ? "identical to unsharded" : "DRIFT (bug!)");
      if (!same) rpc_ok = false;
      // The repeat must come out of the router's cache and stay
      // bit-identical even though the backend is remote.
      auto repeat =
          (*rpc_router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
      repeat.status().Abort("repeated RPC-backed search");
      const RouterCacheStats rpc_cache = (*rpc_router)->cache_stats();
      const bool rpc_cached =
          rpc_cache.hits >= 1 && matches_unsharded(*repeat, false);
      std::printf("rpc cache    : repeat served from the router cache, "
                  "bit-identical -> %s\n",
                  rpc_cached ? "ok" : "CACHE BROKE (bug!)");
      if (!rpc_cached) rpc_ok = false;

      if (rpc_pipeline_drill > 0) {
        // Pipelining drill: ONE connection per shard, N concurrent strict
        // queries interleaved on it. Every response is demuxed by
        // request_id back to its caller, and every ranking must still be
        // bit-identical to the unsharded answer. The cache is OFF so all
        // N queries actually hit the wire instead of the first answer.
        RouterOptions drill_options;
        drill_options.manifest_path = rpc_manifest_path;
        drill_options.endpoints_path = rpc_endpoints_path;
        drill_options.serving.pool_size = 1;
        drill_options.cache_entries = 0;
        drill_options.num_threads = 1;
        auto drill_router = Router::Open(drill_options);
        drill_router.status().Abort("opening the pipelined drill router");
        const size_t inflight = static_cast<size_t>(rpc_pipeline_drill);
        std::vector<int> matched(inflight, 0);
        std::vector<std::thread> drill_threads;
        for (size_t t = 0; t < inflight; ++t) {
          drill_threads.emplace_back([&, t] {
            auto result =
                (*drill_router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
            if (!result.ok()) return;
            matched[t] = matches_unsharded(*result, false) ? 1 : 0;
          });
        }
        for (std::thread& thread : drill_threads) thread.join();
        size_t ok_count = 0;
        for (int ok : matched) ok_count += static_cast<size_t>(ok);
        std::printf("pipeline drill: %zu/%zu interleaved strict queries on "
                    "1 connection/shard identical to unsharded -> %s\n",
                    ok_count, inflight,
                    ok_count == inflight ? "ok" : "PIPELINING BROKE (bug!)");
        if (ok_count != inflight) rpc_ok = false;
      }
    } else {
      // Outage drill. Strict must refuse...
      auto rpc_query = JoinMIQuery::Create(*query_table, "K", "Y",
                                           (*rpc_router)->search_config());
      rpc_query.status().Abort("sketching the RPC query");
      auto strict = (*rpc_router)->SearchQuery(*rpc_query, /*k=*/8,
                                               /*num_threads=*/0,
                                               ShardQueryMode::kStrict);
      if (strict.ok()) {
        std::printf("rpc degraded : strict mode unexpectedly succeeded "
                    "with %ld shards down (bug!)\n", rpc_expect_down);
        rpc_ok = false;
      }
      // ...degraded must answer, reporting exactly the expected outages.
      auto degraded = (*rpc_router)->SearchQuery(*rpc_query, /*k=*/8,
                                                 /*num_threads=*/0,
                                                 ShardQueryMode::kDegraded);
      degraded.status().Abort("degraded RPC search");
      if (degraded->shard_failures.size() !=
          static_cast<size_t>(rpc_expect_down)) {
        std::printf("rpc degraded : %zu shard failures recorded, expected "
                    "%ld (bug!)\n", degraded->shard_failures.size(),
                    rpc_expect_down);
        rpc_ok = false;
      }
      // Recompute the expected degraded answer from the local shard files
      // (CI runs this next to the servers' shard directory): per-shard
      // top-k of every surviving shard, merged on (MI desc, global asc).
      std::set<size_t> down;
      for (const ShardFailure& failure : degraded->shard_failures) {
        down.insert(failure.shard);
      }
      const std::string manifest_dir =
          std::filesystem::path(rpc_manifest_path).parent_path().string();
      auto manifest = ReadManifestFile(rpc_manifest_path);
      manifest.status().Abort("reading the manifest for the drill");
      std::vector<SearchHit> expected;
      for (size_t s = 0; s < manifest->shards.size(); ++s) {
        if (down.count(s) != 0) continue;
        auto client =
            ShardedSketchIndex::LocalFileFactory()(*manifest, s,
                                                   manifest_dir);
        client.status().Abort("loading a surviving shard locally");
        auto shard = (*client)->Search(*rpc_query, /*k=*/8, 0);
        shard.status().Abort("searching a surviving shard locally");
        expected.insert(expected.end(), shard->hits.begin(),
                        shard->hits.end());
      }
      std::sort(expected.begin(), expected.end(), internal::BetterHit);
      if (expected.size() > 8) expected.resize(8);
      // Every hit carries its global index, so the diff keys on it, the
      // candidate and the MI bits.
      bool same = degraded->hits.size() == expected.size();
      for (size_t i = 0; same && i < expected.size(); ++i) {
        same = degraded->hits[i].global_index == expected[i].global_index &&
               degraded->hits[i].candidate.ToString() ==
                   expected[i].candidate.ToString() &&
               degraded->hits[i].estimate.mi == expected[i].estimate.mi;
      }
      std::printf("rpc degraded : %ld down, %zu shard failures recorded, "
                  "surviving merge %s\n",
                  rpc_expect_down, degraded->shard_failures.size(),
                  same ? "matches local recomputation"
                       : "DIFFERS (bug!)");
      if (!same) rpc_ok = false;
    }
    final_stats = (*rpc_router)->StatsJson();
  }

  // 7. Overload drill: saturate an armed admission gate with rounds of N
  //    concurrent identical queries until at least one is shed. Every
  //    rejection must be the structured kOverloaded carrying a parseable
  //    retry_after_ms hint; every ADMITTED query must still match the
  //    unsharded answer bit-for-bit; and nothing may fail any other way.
  //    The drill router runs with its cache OFF so every query reaches
  //    the gate and the backend. Against an RPC target with
  //    --router-max-pending 0, the rejections must come from a shard
  //    server started with --max-pending (they propagate through strict
  //    mode with code and hint intact).
  if (overload_drill > 0) {
    RouterOptions drill_options;
    if (have_rpc_target) {
      drill_options.manifest_path = rpc_manifest_path;
      drill_options.endpoints_path = rpc_replica_endpoints_path.empty()
                                         ? rpc_endpoints_path
                                         : rpc_replica_endpoints_path;
    } else {
      drill_options.manifest_path = last_manifest_path;
    }
    drill_options.cache_entries = 0;
    drill_options.max_pending = static_cast<size_t>(router_max_pending);
    auto drill_router = Router::Open(drill_options);
    drill_router.status().Abort("opening the overload-drill router");
    const size_t fan = static_cast<size_t>(overload_drill);
    std::atomic<uint64_t> rejections{0};
    std::atomic<uint64_t> bad_rejections{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> other_failures{0};
    const int kMaxRounds = 200;
    int rounds = 0;
    while (rounds < kMaxRounds && rejections.load() == 0) {
      ++rounds;
      std::vector<std::thread> threads;
      threads.reserve(fan);
      for (size_t t = 0; t < fan; ++t) {
        threads.emplace_back([&] {
          auto result =
              (*drill_router)->Search(*query_table, {"K", "Y"}, /*k=*/8);
          if (!result.ok()) {
            if (result.status().IsOverloaded()) {
              rejections.fetch_add(1);
              if (RetryAfterHintMs(result.status()) < 0) {
                bad_rejections.fetch_add(1);
              }
            } else {
              other_failures.fetch_add(1);
            }
            return;
          }
          admitted.fetch_add(1);
          if (!matches_unsharded(*result, false)) mismatches.fetch_add(1);
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    const bool drill_ok = rejections.load() > 0 &&
                          bad_rejections.load() == 0 &&
                          mismatches.load() == 0 &&
                          other_failures.load() == 0;
    std::printf("overload drill: %d round(s) of %zu concurrent queries -> "
                "%llu kOverloaded rejection(s) (retry-after on all: %s), "
                "%llu admitted (bit-identical: %s), %llu other failures "
                "-> %s\n",
                rounds, fan,
                static_cast<unsigned long long>(rejections.load()),
                bad_rejections.load() == 0 ? "yes" : "NO (bug!)",
                static_cast<unsigned long long>(admitted.load()),
                mismatches.load() == 0 ? "yes" : "NO (bug!)",
                static_cast<unsigned long long>(other_failures.load()),
                drill_ok ? "ok" : "OVERLOAD DRILL FAILED");
    if (!drill_ok) rpc_ok = false;
    final_stats = (*drill_router)->StatsJson();
  }

  std::filesystem::remove_all(shard_root);
  if (!stats_json_path.empty()) {
    wire::WriteFileBytes(final_stats + "\n", stats_json_path)
        .Abort("writing the stats JSON");
  }
  if (keep_index_path.empty()) std::remove(index_path.c_str());
  return identical && !drift && cache_ok && rpc_ok ? 0 : 1;
}
