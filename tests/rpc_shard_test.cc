// End-to-end tests for networked shard serving, over real loopback
// sockets: ShardServer processes-in-miniature (in-process instances, real
// TCP) serve shard files, RpcShardClient dials them, and the acceptance
// gate is bit-identical rankings against LocalShardClient for K in
// {1, 2, 7}, both partition policies, and any thread count. Availability:
// killing one shard fails a strict-mode query with a clear status, while
// a degraded-mode query returns the surviving shards' correctly merged
// top-k with the outage recorded in shard_failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/discovery/topk_merge.h"
#include "src/sketch/serialize.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

std::shared_ptr<Table> MakeTwoColumnTable(const std::string& key_name,
                                          std::vector<std::string> keys,
                                          const std::string& value_name,
                                          std::vector<int64_t> values) {
  return *Table::FromColumns(
      {{key_name, Column::MakeString(std::move(keys))},
       {value_name, Column::MakeInt64(std::move(values))}});
}

struct Universe {
  std::shared_ptr<Table> base;
  TableRepository repository;
};

// Same construction as sharded_index_test: graded relevance plus exact
// twins, so the cross-shard (and now cross-socket) tie-breaks matter.
Universe MakeUniverse() {
  Universe universe;
  Rng rng(40414);
  const size_t num_keys = 160;
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 7));
  }
  universe.base = MakeTwoColumnTable("K", keys, "Y", targets);

  std::vector<int64_t> values;
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(i % 7));
  }
  auto exact = MakeTwoColumnTable("K", keys, "V", values);
  universe.repository.AddTable("exact", exact).Abort();
  universe.repository.AddTable("exact_twin", exact).Abort();
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>((i % 7) / 3));
  }
  universe.repository
      .AddTable("coarse", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(7)));
  }
  universe.repository
      .AddTable("noise", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  return universe;
}

JoinMIConfig MakeIndexConfig() {
  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  return config;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_rpc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectBitIdentical(const TopKSearchResult& expected,
                        const TopKSearchResult& actual) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(expected.hits[i].global_index, actual.hits[i].global_index)
        << i;
    EXPECT_EQ(expected.hits[i].candidate.table_name,
              actual.hits[i].candidate.table_name) << i;
    EXPECT_EQ(expected.hits[i].candidate.key_column,
              actual.hits[i].candidate.key_column) << i;
    EXPECT_EQ(expected.hits[i].candidate.value_column,
              actual.hits[i].candidate.value_column) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

/// A shard deployment: shard files + manifest on disk, one ShardServer
/// per shard on an ephemeral loopback port, endpoints in shard order.
struct Deployment {
  std::string dir;
  std::string manifest_path;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardEndpoint> endpoints;

  ~Deployment() {
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

void StartDeployment(const SketchIndex& index, size_t num_shards,
                     ShardPartitionPolicy policy, const std::string& name,
                     Deployment* deployment, size_t num_workers = 2) {
  deployment->dir = ScratchDir(name);
  auto manifest_path =
      BuildShards(index, num_shards, policy, deployment->dir);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  deployment->manifest_path = *manifest_path;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardServerOptions options;
    options.num_workers = num_workers;
    auto server = ShardServer::Create(deployment->manifest_path, s, options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Start().ok());
    deployment->endpoints.push_back(
        ShardEndpoint{"127.0.0.1", (*server)->port()});
    deployment->servers.push_back(std::move(*server));
  }
}

RpcClientOptions FastTimeouts() {
  RpcClientOptions options;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 10000;
  return options;
}

// ----------------------------------------------------------- Endpoint file

std::string WriteEndpointsFixture(const std::string& name,
                                  const std::string& contents) {
  const std::string dir = ScratchDir("endpoints_" + name);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/endpoints.txt";
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(EndpointsFileTest, ToleratesBlankLinesAndComments) {
  const std::string path = WriteEndpointsFixture(
      "tolerant",
      "# serving map for the three shards\n"
      "\n"
      "127.0.0.1:7001\n"
      "   \t\n"
      "127.0.0.1:7002   # shard 1, note the inline comment\n"
      "\n"
      "127.0.0.1:7003\n"
      "# trailing comment\n");
  auto endpoints = ReadShardEndpoints(path);
  ASSERT_TRUE(endpoints.ok()) << endpoints.status();
  ASSERT_EQ(endpoints->size(), 3u);
  EXPECT_EQ((*endpoints)[0][0].port, 7001);
  EXPECT_EQ((*endpoints)[1][0].port, 7002);
  EXPECT_EQ((*endpoints)[2][0].port, 7003);
  std::filesystem::remove_all(
      std::filesystem::path(path).parent_path().string());
}

TEST(EndpointsFileTest, MalformedLineReportsItsLineNumber) {
  // Line 5 is the broken one: comment, blank, and valid lines before it
  // must all count toward the reported position.
  const std::string path = WriteEndpointsFixture(
      "badline",
      "# header\n"
      "\n"
      "127.0.0.1:7001\n"
      "127.0.0.1:7002\n"
      "127.0.0.1:badport\n");
  auto endpoints = ReadShardEndpoints(path);
  ASSERT_FALSE(endpoints.ok());
  EXPECT_TRUE(endpoints.status().IsInvalidArgument()) << endpoints.status();
  EXPECT_NE(endpoints.status().message().find(path + ":5:"),
            std::string::npos)
      << endpoints.status();
  std::filesystem::remove_all(
      std::filesystem::path(path).parent_path().string());
}

// ---------------------------------------------------- Rank agreement gate

TEST(RpcShardTest, RpcRankingsBitIdenticalToLocalForEveryKPolicyThreads) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);

  for (ShardPartitionPolicy policy :
       {ShardPartitionPolicy::kRoundRobin,
        ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 2u, 3u, 7u}) {
      Deployment deployment;
      StartDeployment(index, num_shards, policy,
                      std::string("agree_") +
                          ShardPartitionPolicyToString(policy) + "_" +
                          std::to_string(num_shards),
                      &deployment);
      auto local = ShardedSketchIndex::Load(deployment.manifest_path);
      ASSERT_TRUE(local.ok()) << local.status();
      auto remote = ShardedSketchIndex::Load(
          deployment.manifest_path,
          RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
      ASSERT_TRUE(remote.ok()) << remote.status();
      EXPECT_EQ(remote->num_shards(), num_shards);
      EXPECT_TRUE(remote->config() == index.config());

      for (size_t k : {1u, 2u, 7u}) {
        auto via_local = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                          *local, k, 1);
        ASSERT_TRUE(via_local.ok()) << via_local.status();
        for (size_t num_threads : {1u, 4u, 0u}) {
          auto via_rpc = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                          *remote, k, num_threads);
          ASSERT_TRUE(via_rpc.ok()) << via_rpc.status();
          ExpectBitIdentical(*via_local, *via_rpc);
          EXPECT_TRUE(via_rpc->shard_failures.empty());
        }
      }

      // min_join_size travels in the search request rather than with the
      // shard: a query relaxed to 1 must answer remotely exactly as it
      // does in process.
      JoinMIConfig relaxed = index.config();
      relaxed.min_join_size = 1;
      auto relaxed_query =
          JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
      ASSERT_TRUE(relaxed_query.ok()) << relaxed_query.status();
      for (size_t k : {1u, 3u, 7u}) {
        auto via_local = local->Search(*relaxed_query, k, 1);
        ASSERT_TRUE(via_local.ok()) << via_local.status();
        auto via_rpc = remote->Search(*relaxed_query, k, 1);
        ASSERT_TRUE(via_rpc.ok()) << via_rpc.status();
        ExpectBitIdentical(*via_local, *via_rpc);
      }
    }
  }
}

TEST(RpcShardTest, ConnectionsAreReusedAcrossQueries) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "reuse",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  TopKSearchResult first;
  for (int q = 0; q < 5; ++q) {
    auto result = remote->Search(*query, 3, 1);
    ASSERT_TRUE(result.ok()) << result.status();
    if (q == 0) {
      first = std::move(*result);
    } else {
      ASSERT_EQ(result->hits.size(), first.hits.size());
      for (size_t i = 0; i < first.hits.size(); ++i) {
        EXPECT_EQ(result->hits[i].estimate.mi, first.hits[i].estimate.mi);
        EXPECT_EQ(result->hits[i].global_index, first.hits[i].global_index);
      }
    }
  }
  // 5 queries x 2 shards = 10 search frames, and exactly 2 handshakes (one
  // per client connection) prove the connections were not re-dialed per
  // query — each re-dial would add a handshake. The search counter counts
  // query traffic only; handshakes no longer inflate it.
  uint64_t total_requests = 0;
  uint64_t total_handshakes = 0;
  for (const auto& server : deployment.servers) {
    total_requests += server->requests_served();
    total_handshakes += server->handshakes_served();
  }
  EXPECT_EQ(total_requests, 5u * 2u);
  EXPECT_EQ(total_handshakes, 2u);
}

// --------------------------------------------- Concurrent multiplexing

// Builds a 1-shard RPC router whose single typed client is observable, so
// tests can read pool instrumentation after driving traffic through the
// normal ShardedSketchIndex surface.
void MakeSingleShardRouter(const Deployment& deployment,
                           RpcClientOptions options,
                           std::unique_ptr<ShardedSketchIndex>* router,
                           const RpcShardClient** client_out) {
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  auto client = RpcShardClient::Create(deployment.endpoints[0],
                                       manifest->config,
                                       manifest->shards[0].candidate_count,
                                       options);
  ASSERT_TRUE(client.ok()) << client.status();
  *client_out = client->get();
  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.push_back(std::move(*client));
  auto assembled =
      ShardedSketchIndex::Create(std::move(*manifest), std::move(clients));
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  *router = std::make_unique<ShardedSketchIndex>(std::move(*assembled));
}

TEST(RpcShardTest, OneUploadServesEveryKAndFloorOnAConnection) {
  // The server keeps the query built at upload time: searches at several k,
  // then at a second floor (the rebuilt query), then back at the first,
  // all over one connection and one upload, each bit-identical to the
  // in-process shard.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "floors",
                  &deployment);
  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok()) << local.status();

  JoinMIConfig relaxed = index.config();
  relaxed.min_join_size = 1;
  auto query = JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok()) << query.status();
  auto relaxed_query = JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
  ASSERT_TRUE(relaxed_query.ok()) << relaxed_query.status();
  ASSERT_EQ(query->SerializedTrainSketchDigest(),
            relaxed_query->SerializedTrainSketchDigest());
  size_t searches = 0;
  for (const JoinMIQuery* q : {&*query, &*relaxed_query, &*query}) {
    for (size_t k : {1u, 3u, 7u}) {
      auto via_local = local->Search(*q, k, 1);
      ASSERT_TRUE(via_local.ok()) << via_local.status();
      auto via_rpc = router->Search(*q, k, 1);
      ASSERT_TRUE(via_rpc.ok()) << via_rpc.status();
      ExpectBitIdentical(*via_local, *via_rpc);
      ++searches;
    }
  }
  EXPECT_EQ(client->dials(), 1u);
  EXPECT_EQ(deployment.servers[0]->sketch_uploads_served(), 1u);
  EXPECT_EQ(deployment.servers[0]->requests_served(), searches);
}

TEST(RpcShardTest, ConcurrentRouterThreadsMultiplexOneShardViaThePool) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "mux",
                  &deployment, /*num_workers=*/8);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 4;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);

  // Serial reference: the local (in-process) path, once.
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok()) << local.status();
  const size_t k = 3;
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, k, 1);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // 8 router threads, each issuing several strict queries concurrently
  // against the same 1-shard index: the pool must multiplex them onto
  // parallel connections, and every single ranking must stay
  // bit-identical to the serial local answer.
  const size_t num_threads = 8;
  const size_t queries_per_thread = 4;
  std::vector<TopKSearchResult> results(num_threads * queries_per_thread);
  std::vector<Status> statuses(num_threads * queries_per_thread,
                               Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, k, 1);
        const size_t slot = t * queries_per_thread + q;
        if (result.ok()) {
          results[slot] = std::move(*result);
        } else {
          statuses[slot] = result.status();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "query " << i << ": " << statuses[i];
    ExpectBitIdentical(*expected, results[i]);
    EXPECT_TRUE(results[i].shard_failures.empty());
  }
  // The acceptance gate: a second connection is dialed only while the
  // first has a request in flight, so two dials prove at least two
  // requests were in flight to the single shard at the same instant.
  EXPECT_GE(client->dials(), 2u)
      << "8 threads x 4 queries never overlapped on the shard connections";
  EXPECT_LE(client->live_channels(), options.pool_size);
  EXPECT_LE(client->dials(), options.pool_size);
}

TEST(RpcShardTest, PoolOfOneBlocksConcurrentQueriesInsteadOfOverdialing) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "pool1",
                  &deployment, /*num_workers=*/4);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);

  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, 3, 1);
  ASSERT_TRUE(expected.ok());

  const size_t num_threads = 4;
  const size_t queries_per_thread = 4;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 3, 1);
        if (!result.ok()) {
          statuses[t] = result.status();
          return;
        }
        ExpectBitIdentical(*expected, *result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  // Queries shared the connection rather than over-dialing: exactly one
  // connection ever dialed (Create's eager handshake connection, reused
  // by all 16 queries)...
  EXPECT_EQ(client->live_channels(), 1u);
  EXPECT_EQ(client->dials(), 1u);
  // ...which the server confirms independently: one handshake ever, and
  // every search accounted for on that single connection (the handshake
  // itself no longer counts as a request).
  EXPECT_EQ(deployment.servers[0]->handshakes_served(), 1u);
  EXPECT_EQ(deployment.servers[0]->requests_served(),
            num_threads * queries_per_thread);
}

// ------------------------------------------------------- Failure handling

TEST(RpcShardTest, KilledShardFailsStrictAndDegradesGracefully) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const size_t num_shards = 3;
  Deployment deployment;
  StartDeployment(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  "degrade", &deployment);

  // Reference: the full (healthy) local answer, and the per-shard local
  // answers for computing the expected degraded merge.
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  const size_t k = 4;

  // Kill shard 1's server, then assemble the router — creation must
  // tolerate the outage (that is the degraded deployment's whole point).
  const size_t dead_shard = 1;
  deployment.servers[dead_shard]->Stop();
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok()) << remote.status();

  // Strict mode: the query fails, naming the dead shard.
  auto strict = remote->Search(*query, k, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsIOError()) << strict.status();
  EXPECT_NE(strict.status().message().find("shard 1"), std::string::npos)
      << strict.status();

  // Degraded mode: the surviving shards' merged top-k, outage recorded.
  auto degraded = remote->Search(*query, k, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->shard_failures.size(), 1u);
  EXPECT_EQ(degraded->shard_failures[0].shard, dead_shard);
  EXPECT_FALSE(degraded->shard_failures[0].status.ok());

  // Expected: merge the live shards' local per-shard answers with the
  // canonical comparator — computed independently of the router.
  std::vector<SearchHit> expected;
  size_t expected_candidates = 0, expected_evaluated = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (s == dead_shard) continue;
    const ShardManifestEntry& entry = local->manifest().shards[s];
    auto shard_index = ReadIndexFile(
        deployment.dir + "/" + entry.path);
    ASSERT_TRUE(shard_index.ok());
    auto client = LocalShardClient::Create(std::move(*shard_index),
                                           entry.global_indices);
    ASSERT_TRUE(client.ok());
    auto result = (*client)->Search(*query, k, 1);
    ASSERT_TRUE(result.ok());
    expected_candidates += result->num_candidates;
    expected_evaluated += result->num_evaluated;
    for (const SearchHit& hit : result->hits) {
      expected.push_back(hit);
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const SearchHit& a, const SearchHit& b) {
              return internal::BetterByMIThenKey(
                  a.estimate.mi, a.global_index, b.estimate.mi,
                  b.global_index);
            });
  if (expected.size() > k) expected.resize(k);

  EXPECT_EQ(degraded->num_candidates, expected_candidates);
  EXPECT_EQ(degraded->num_evaluated, expected_evaluated);
  ASSERT_EQ(degraded->hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(degraded->hits[i].global_index, expected[i].global_index) << i;
    EXPECT_EQ(degraded->hits[i].estimate.mi, expected[i].estimate.mi) << i;
    EXPECT_EQ(degraded->hits[i].candidate.table_name,
              expected[i].candidate.table_name)
        << i;
  }

  // The search-overload surface carries the failure report through.
  auto via_search = TopKJoinMISearch(*universe.base, {"K", "Y"}, *remote, k,
                                     1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(via_search.ok()) << via_search.status();
  ASSERT_EQ(via_search->shard_failures.size(), 1u);
  EXPECT_EQ(via_search->shard_failures[0].shard, dead_shard);
  ASSERT_EQ(via_search->hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(via_search->hits[i].estimate.mi, expected[i].estimate.mi) << i;
  }

  // A restarted shard heals the router without reassembly: bring the dead
  // shard back on the SAME port and the strict query works again.
  ShardServerOptions revive_options;
  revive_options.num_workers = 2;
  revive_options.port = deployment.endpoints[dead_shard].port;
  auto revived = ShardServer::Create(deployment.manifest_path, dead_shard,
                                     revive_options);
  ASSERT_TRUE(revived.ok()) << revived.status();
  ASSERT_TRUE((*revived)->Start().ok());
  deployment.servers[dead_shard] = std::move(*revived);
  auto healed = remote->Search(*query, k, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(healed->shard_failures.empty());
}

TEST(RpcShardTest, RestartedServerHealsCachedConnectionsTransparently) {
  // Regression: a client that already used its connection, whose server
  // then cleanly restarts, must answer the very next strict query — the
  // stale cached connection accepts the send (TCP half-close), so only
  // the pre-send staleness probe can keep the first post-restart request
  // from failing spuriously.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "restart",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());

  auto before = remote->Search(*query, 3, 1);
  ASSERT_TRUE(before.ok()) << before.status();

  // Restart every server on its old port; the clients' cached
  // connections all go stale at once.
  for (size_t s = 0; s < deployment.servers.size(); ++s) {
    const uint16_t port = deployment.endpoints[s].port;
    deployment.servers[s]->Stop();
    ShardServerOptions options;
    options.num_workers = 2;
    options.port = port;
    auto revived =
        ShardServer::Create(deployment.manifest_path, s, options);
    ASSERT_TRUE(revived.ok()) << revived.status();
    ASSERT_TRUE((*revived)->Start().ok());
    deployment.servers[s] = std::move(*revived);
  }

  auto after = remote->Search(*query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(after.ok()) << "first strict query after a clean restart "
                             "must succeed, got: "
                          << after.status();
  ASSERT_EQ(after->hits.size(), before->hits.size());
  for (size_t i = 0; i < before->hits.size(); ++i) {
    EXPECT_EQ(after->hits[i].estimate.mi, before->hits[i].estimate.mi);
    EXPECT_EQ(after->hits[i].global_index, before->hits[i].global_index);
  }
}

TEST(RpcShardTest, AllShardsDownFailsEvenDegraded) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "alldown",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok());
  for (auto& server : deployment.servers) server->Stop();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  auto degraded = remote->Search(*query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_FALSE(degraded.ok());
  EXPECT_NE(degraded.status().message().find("every shard failed"),
            std::string::npos)
      << degraded.status();
}

TEST(RpcShardTest, HealthProbeReportsLivenessAndOutage) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "health",
                  &deployment);
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());

  auto client = RpcShardClient::Create(
      deployment.endpoints[0], manifest->config,
      manifest->shards[0].candidate_count, FastTimeouts());
  ASSERT_TRUE(client.ok()) << client.status();
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->num_candidates, manifest->shards[0].candidate_count);
  // No search has run: the reported counter is 0 because handshakes and
  // health probes no longer inflate it — they land on their own counters.
  EXPECT_EQ(health->requests_served, 0u);
  EXPECT_GE(deployment.servers[0]->handshakes_served(), 1u);
  EXPECT_GE(deployment.servers[0]->health_served(), 1u);

  deployment.servers[0]->Stop();
  auto down = (*client)->Health();
  ASSERT_FALSE(down.ok());
}

// -------------------------------------------------- Config agreement gate

TEST(RpcShardTest, HandshakeRejectsConfigDisagreement) {
  // Serve shards built under seed 0, but hand the router a manifest whose
  // embedded config says seed 9 — the handshake's operator== check must
  // refuse at assembly, not at first wrong answer.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "confmis",
                  &deployment);

  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());
  JoinMIConfig tampered = manifest->config;
  tampered.hash_seed = 9;
  auto client = RpcShardClient::Create(
      deployment.endpoints[0], tampered,
      manifest->shards[0].candidate_count, FastTimeouts());
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsInvalidArgument()) << client.status();
  EXPECT_NE(client.status().message().find("JoinMIConfig"),
            std::string::npos);
}

TEST(RpcShardTest, SearchRejectsQueryConfigDrift) {
  // A query sketched under a different estimator config than the shard's
  // must be refused client-side: the server would otherwise answer under
  // its own config and the caller would never know.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "drift",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok());

  JoinMIConfig drifted = MakeIndexConfig();
  drifted.estimator = MIEstimatorKind::kMLE;
  auto query = JoinMIQuery::Create(*universe.base, "K", "Y", drifted);
  ASSERT_TRUE(query.ok());
  auto result = remote->Search(*query, 3, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();

  // min_join_size alone is allowed to differ — it travels per request and
  // the shard honors it exactly.
  JoinMIConfig relaxed = MakeIndexConfig();
  relaxed.min_join_size = 1;
  auto relaxed_query =
      JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
  ASSERT_TRUE(relaxed_query.ok());
  auto relaxed_result = remote->Search(*relaxed_query, 3, 1);
  ASSERT_TRUE(relaxed_result.ok()) << relaxed_result.status();
}

// ------------------------------------------------------- Pipelining

TEST(RpcShardTest, PipelinedChannelOverlapsQueriesOnOneConnection) {
  // pool_size 1: a single TCP connection, shared by 8 concurrent router
  // threads. The channel interleaves requests and demuxes responses by
  // request_id, so
  // the in-flight high-water mark must exceed 1 while the dial count
  // stays at exactly one connection.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "pipeline",
                  &deployment, /*num_workers=*/4);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);

  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, 3, 1);
  ASSERT_TRUE(expected.ok());

  const size_t num_threads = 8;
  const size_t queries_per_thread = 4;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 3, 1);
        if (!result.ok()) {
          statuses[t] = result.status();
          return;
        }
        ExpectBitIdentical(*expected, *result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  // The pigeonhole: 32 queries from 8 threads funneled through one
  // connection must have overlapped — pipelining is what lets them.
  EXPECT_GE(client->max_pipelined(), 2u)
      << "8 threads never had two requests in flight on the one connection";
  EXPECT_EQ(client->live_channels(), 1u);
  EXPECT_EQ(client->dials(), 1u);
  // The sketch crossed the wire once; every query after the first reused
  // the connection-cached copy by digest.
  EXPECT_EQ(deployment.servers[0]->sketch_uploads_served(), 1u);
  EXPECT_EQ(deployment.servers[0]->requests_served(),
            num_threads * queries_per_thread);
}

TEST(RpcShardTest, DistinctQueriesBeyondOneConnectionsSketchCache) {
  // A connection caches at most kMaxCachedSketches query sketches and
  // refuses the next one; the client must then retire that connection
  // and finish the search on a fresh one, so a long-lived client can ask
  // any number of distinct queries. One connection allowed, 20 distinct
  // sketches, serially and then from 4 threads, every ranking
  // bit-identical to the in-process shard.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "sketches",
                  &deployment, /*num_workers=*/4);
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok()) << local.status();

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  auto client = RpcShardClient::Create(deployment.endpoints[0],
                                       manifest->config,
                                       manifest->shards[0].candidate_count,
                                       options);
  ASSERT_TRUE(client.ok()) << client.status();

  // Same keys as the base table, a different random target per query, so
  // every query uploads its own sketch.
  const size_t num_queries = 20;
  ASSERT_GT(num_queries, 2 * ShardServer::kMaxCachedSketches);
  std::vector<JoinMIQuery> queries;
  std::vector<TopKSearchResult> expected;
  std::set<uint64_t> digests;
  for (size_t q = 0; q < num_queries; ++q) {
    Rng rng(500 + q);
    std::vector<std::string> keys;
    std::vector<int64_t> targets;
    for (size_t i = 0; i < 160; ++i) {
      keys.push_back("key" + std::to_string(i));
      targets.push_back(static_cast<int64_t>(rng.NextBounded(7)));
    }
    auto table = MakeTwoColumnTable("K", keys, "Y", targets);
    auto query = JoinMIQuery::Create(*table, "K", "Y", index.config());
    ASSERT_TRUE(query.ok()) << query.status();
    digests.insert(wire::Checksum64(query->SerializedTrainSketch()));
    auto reference = local->client(0).Search(*query, 3, 1);
    ASSERT_TRUE(reference.ok()) << reference.status();
    expected.push_back(std::move(*reference));
    queries.push_back(std::move(*query));
  }
  ASSERT_EQ(digests.size(), num_queries);

  for (size_t q = 0; q < num_queries; ++q) {
    auto result = (*client)->Search(queries[q], 3, 1);
    ASSERT_TRUE(result.ok()) << "serial query " << q << ": "
                             << result.status();
    ExpectBitIdentical(expected[q], *result);
  }

  const size_t num_threads = 4;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::vector<TopKSearchResult>> results(num_threads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < num_queries; ++i) {
        const size_t q = (i + t * 5) % num_queries;
        auto result = (*client)->Search(queries[q], 3, 1);
        if (!result.ok()) {
          statuses[t] = result.status();
          return;
        }
        results[t].push_back(std::move(*result));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
    ASSERT_EQ(results[t].size(), num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      ExpectBitIdentical(expected[(i + t * 5) % num_queries],
                              results[t][i]);
    }
  }
  // Full connections were replaced, never multiplied, and every search
  // ran exactly once — a refused upload is retried, a search never.
  EXPECT_GE((*client)->dials(), 3u);
  EXPECT_LE((*client)->live_channels(), 1u);
  EXPECT_EQ(deployment.servers[0]->handshakes_served(), (*client)->dials());
  EXPECT_EQ(deployment.servers[0]->requests_served(),
            num_queries * (1 + num_threads));
}

// ----------------------------------------------------- Shutdown safety

TEST(RpcShardTest, ConcurrentStopCallsAreSerializedAndIdempotent) {
  // Two threads race Stop() on the same server: exactly one performs the
  // teardown, the other blocks until it finishes, nobody double-joins.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "stoprace",
                  &deployment);
  ShardServer* server = deployment.servers[0].get();
  const uint16_t port = server->port();

  std::vector<std::thread> stoppers;
  for (int t = 0; t < 2; ++t) {
    stoppers.emplace_back([server] { server->Stop(); });
  }
  for (std::thread& thread : stoppers) thread.join();
  server->Stop();  // and again after the fact — a no-op
  // The port actually stopped answering.
  auto probe = net::Socket::Connect("127.0.0.1", port, 250);
  if (probe.ok()) {
    (void)probe->SetTimeouts(250, 250);
    EXPECT_FALSE(
        net::SendFrame(&*probe, net::FrameType::kHealthRequest, 1, "").ok() &&
        net::RecvFrame(&*probe).ok());
  }
}

TEST(RpcShardTest, StopReturnsWithPipelinedSearchesQueuedBehindOneWorker) {
  // One request worker, one connection, eight client threads searching in
  // a loop: their pipelined frames queue behind the worker. Stop() in the
  // middle must drain or drop them and return, and every client call must
  // end with the ranking or an IOError — no hang, no other status.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "stopqueued",
                  &deployment, /*num_workers=*/1);
  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok()) << local.status();
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, 3, 1);
  ASSERT_TRUE(expected.ok()) << expected.status();

  constexpr size_t kThreads = 8;
  constexpr size_t kQueriesPerThread = 40;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> refused{0};
  std::vector<Status> unexpected(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 3, 1);
        if (result.ok()) {
          ExpectBitIdentical(*expected, *result);
          answered.fetch_add(1);
        } else if (result.status().IsIOError()) {
          refused.fetch_add(1);
        } else {
          unexpected[t] = result.status();
          return;
        }
      }
    });
  }
  // Stop once searches are flowing, so some are queued behind the worker.
  ShardServer* server = deployment.servers[0].get();
  while (server->requests_served() < 2 * kThreads &&
         answered.load() + refused.load() < kThreads * kQueriesPerThread) {
    std::this_thread::yield();
  }
  server->Stop();
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(unexpected[t].ok()) << "thread " << t << ": " << unexpected[t];
  }
  EXPECT_EQ(answered.load() + refused.load(), kThreads * kQueriesPerThread);
  // Searches were answered before the stop, and the server stopped with
  // calls still to make. (A frame that slipped past the drain is served
  // but its reply dropped, so served and answered counts may differ.)
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(refused.load(), 0u);
}

}  // namespace
}  // namespace joinmi
