// Front-tier Router tests: Router::Open as the one construction path, the
// result cache (bit-identity, degraded-never-cached, LRU eviction, reload
// invalidation), the admission gate (structured kOverloaded + retry-after
// under a deliberately blocked backend), and the metrics snapshot.
//
// The backend seam under test is RouterOptions::factory_override: an
// instrumented ShardClient wraps the real local loader and can be told to
// fail, to block until released, or simply to count how many searches
// actually reached the shard — which is how these tests prove a cache hit
// never re-ran the fan-out.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/admission.h"
#include "src/common/random.h"
#include "src/discovery/router.h"
#include "src/discovery/search.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
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

// Graded relevance plus exact twins, so rankings and tie-breaks are
// non-trivial (same construction as the sharded/RPC suites).
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
  const std::string dir = testing::TempDir() + "/joinmi_router_" + name;
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
    EXPECT_EQ(expected.hits[i].candidate.ToString(),
              actual.hits[i].candidate.ToString()) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

// ---------------------------------------------- Instrumented shard client

// Per-shard remote control for the instrumented backend.
struct ShardControl {
  std::atomic<uint64_t> searches{0};
  std::atomic<bool> fail{false};
  std::atomic<bool> block{false};
  // Signals a blocked Search actually started (the admission test must
  // know the gate slot is held before it fires the second query).
  std::atomic<bool> entered{false};
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
};

class InstrumentedShardClient : public ShardClient {
 public:
  InstrumentedShardClient(std::unique_ptr<ShardClient> inner,
                          std::shared_ptr<ShardControl> control)
      : inner_(std::move(inner)), control_(std::move(control)) {}

  const JoinMIConfig& config() const override { return inner_->config(); }
  size_t num_candidates() const override { return inner_->num_candidates(); }

  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads) const override {
    control_->searches.fetch_add(1);
    if (control_->block.load()) {
      control_->entered.store(true);
      std::unique_lock<std::mutex> lock(control_->mutex);
      control_->cv.wait(lock, [this] { return control_->released; });
    }
    if (control_->fail.load()) {
      return Status::IOError("instrumented shard outage");
    }
    return inner_->Search(query, k, num_threads);
  }

 private:
  std::unique_ptr<ShardClient> inner_;
  std::shared_ptr<ShardControl> control_;
};

// Wraps the real local loader; `controls` receives one ShardControl per
// shard, in shard order.
ShardClientFactory InstrumentedFactory(
    std::vector<std::shared_ptr<ShardControl>>* controls) {
  auto local = ShardedSketchIndex::LocalFileFactory();
  return [local, controls](const ShardManifest& manifest, size_t shard,
                           const std::string& manifest_dir)
             -> Result<std::unique_ptr<ShardClient>> {
    auto inner = local(manifest, shard, manifest_dir);
    if (!inner.ok()) return inner.status();
    auto control = std::make_shared<ShardControl>();
    controls->push_back(control);
    return std::unique_ptr<ShardClient>(
        new InstrumentedShardClient(std::move(*inner), control));
  };
}

uint64_t TotalSearches(
    const std::vector<std::shared_ptr<ShardControl>>& controls) {
  uint64_t total = 0;
  for (const auto& control : controls) total += control->searches.load();
  return total;
}

// A test fixture owning one index, its shard layouts, and the scratch dir.
class RouterTest : public testing::Test {
 protected:
  void SetUp() override {
    universe_ = MakeUniverse();
    index_ = std::make_unique<SketchIndex>(MakeIndexConfig());
    ASSERT_TRUE(index_->IndexRepository(universe_.repository).ok());
    dir_ = ScratchDir(
        testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string BuildLayout(size_t num_shards, ShardPartitionPolicy policy,
                          const std::string& name) {
    auto manifest_path =
        BuildShards(*index_, num_shards, policy, dir_ + "/" + name);
    EXPECT_TRUE(manifest_path.ok()) << manifest_path.status();
    return manifest_path.ok() ? *manifest_path : std::string();
  }

  Result<TopKSearchResult> Unsharded(size_t k) {
    return TopKJoinMISearch(*universe_.base, {"K", "Y"}, *index_, k);
  }

  JoinMIQuery SketchBase(const JoinMIConfig& config) {
    auto query = JoinMIQuery::Create(*universe_.base, "K", "Y", config);
    query.status().Abort("sketching the base table");
    return std::move(*query);
  }

  Universe universe_;
  std::unique_ptr<SketchIndex> index_;
  std::string dir_;
};

// ------------------------------------------------------------ Open + cache

TEST_F(RouterTest, CacheHitsBitIdenticalAcrossPoliciesAndShardCounts) {
  auto reference = Unsharded(3);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (ShardPartitionPolicy policy : {ShardPartitionPolicy::kRoundRobin,
                                      ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 3u}) {
      RouterOptions options;
      options.manifest_path = BuildLayout(
          num_shards, policy,
          ShardPartitionPolicyToString(policy) + std::to_string(num_shards));
      auto router = Router::Open(options);
      ASSERT_TRUE(router.ok()) << router.status();

      auto first = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
      ASSERT_TRUE(first.ok()) << first.status();
      ExpectBitIdentical(*reference, *first);
      EXPECT_EQ((*router)->cache_stats().hits, 0u);
      EXPECT_EQ((*router)->cache_stats().misses, 1u);

      auto second = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
      ASSERT_TRUE(second.ok()) << second.status();
      ExpectBitIdentical(*first, *second);
      EXPECT_EQ((*router)->cache_stats().hits, 1u);
    }
  }
}

TEST_F(RouterTest, CacheHitNeverReRunsTheFanOut) {
  std::vector<std::shared_ptr<ShardControl>> controls;
  RouterOptions options;
  options.manifest_path =
      BuildLayout(3, ShardPartitionPolicy::kRoundRobin, "counted");
  options.factory_override = InstrumentedFactory(&controls);
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ(controls.size(), 3u);

  const JoinMIQuery query = SketchBase((*router)->search_config());
  auto first = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t after_first = TotalSearches(controls);
  EXPECT_EQ(after_first, 3u);  // one fan-out, every shard touched

  auto second = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectBitIdentical(*first, *second);
  EXPECT_EQ(TotalSearches(controls), after_first);  // zero backend traffic
}

TEST_F(RouterTest, DifferentKGetsItsOwnCacheEntry) {
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "bykey");
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  const JoinMIQuery query = SketchBase((*router)->search_config());

  ASSERT_TRUE(
      (*router)->SearchQuery(query, 2, 1, ShardQueryMode::kStrict).ok());
  ASSERT_TRUE(
      (*router)->SearchQuery(query, 4, 1, ShardQueryMode::kStrict).ok());
  const RouterCacheStats stats = (*router)->cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 0u);
  // k=2 truncation is a different answer than a truncated k=4 would be
  // cached under — each k must hit its own entry.
  auto again = (*router)->SearchQuery(query, 2, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->hits.size(), 2u);
  EXPECT_EQ((*router)->cache_stats().hits, 1u);
}

TEST_F(RouterTest, DegradedAnswersAreNeverCached) {
  std::vector<std::shared_ptr<ShardControl>> controls;
  RouterOptions options;
  options.manifest_path =
      BuildLayout(3, ShardPartitionPolicy::kRoundRobin, "degraded");
  options.factory_override = InstrumentedFactory(&controls);
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ(controls.size(), 3u);
  const JoinMIQuery query = SketchBase((*router)->search_config());

  controls[1]->fail.store(true);
  auto degraded =
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->shard_failures.size(), 1u);
  EXPECT_EQ((*router)->cache_stats().entries, 0u);

  // The identical query again: a cached degraded answer would keep
  // serving the outage, so it must re-reach the backend instead.
  const uint64_t before = TotalSearches(controls);
  auto repeat =
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(repeat.ok());
  EXPECT_GT(TotalSearches(controls), before);
  EXPECT_EQ((*router)->cache_stats().entries, 0u);

  // Shard healed: the now-complete answer caches, and the next repeat is
  // served without backend traffic.
  controls[1]->fail.store(false);
  auto healed =
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->shard_failures.empty());
  EXPECT_EQ((*router)->cache_stats().entries, 1u);
  const uint64_t after_healed = TotalSearches(controls);
  auto hit = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(hit.ok());
  ExpectBitIdentical(*healed, *hit);
  EXPECT_EQ(TotalSearches(controls), after_healed);
}

TEST_F(RouterTest, FailedQueriesAreNotCachedAndStrictOutagePropagates) {
  std::vector<std::shared_ptr<ShardControl>> controls;
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "strictfail");
  options.factory_override = InstrumentedFactory(&controls);
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  const JoinMIQuery query = SketchBase((*router)->search_config());

  controls[0]->fail.store(true);
  auto strict = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsIOError()) << strict.status();
  EXPECT_EQ((*router)->cache_stats().entries, 0u);
  EXPECT_EQ((*router)->metrics().CounterValue("router.queries.failed"), 1u);
}

TEST_F(RouterTest, LruEvictionUnderTinyEntryCap) {
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "evict");
  options.cache_entries = 2;
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  const JoinMIQuery query = SketchBase((*router)->search_config());

  // Three distinct keys through a 2-entry cache: k=1 is the LRU victim.
  for (size_t k : {1u, 2u, 3u}) {
    ASSERT_TRUE(
        (*router)->SearchQuery(query, k, 1, ShardQueryMode::kStrict).ok());
  }
  RouterCacheStats stats = (*router)->cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // k=2 and k=3 are resident; k=1 must miss (it was evicted).
  ASSERT_TRUE(
      (*router)->SearchQuery(query, 2, 1, ShardQueryMode::kStrict).ok());
  ASSERT_TRUE(
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict).ok());
  EXPECT_EQ((*router)->cache_stats().hits, 2u);
  ASSERT_TRUE(
      (*router)->SearchQuery(query, 1, 1, ShardQueryMode::kStrict).ok());
  stats = (*router)->cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);  // re-inserting k=1 evicted again
}

TEST_F(RouterTest, ReloadSwapsTheManifestAndClearsTheCache) {
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "epoch_a");
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();

  auto first = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*router)->cache_stats().entries, 1u);
  EXPECT_EQ((*router)->num_shards(), 2u);

  // A different layout of the same index: the new epoch must start with
  // an empty cache even though the contents would agree.
  const std::string manifest_b =
      BuildLayout(3, ShardPartitionPolicy::kHashByDataset, "epoch_b");
  ASSERT_TRUE((*router)->Reload(manifest_b).ok());
  EXPECT_EQ((*router)->num_shards(), 3u);
  EXPECT_EQ((*router)->cache_stats().entries, 0u);
  EXPECT_EQ((*router)->metrics().CounterValue("router.reload.count"), 1u);

  auto second = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectBitIdentical(*first, *second);  // same index, new shards — same bits
  const RouterCacheStats stats = (*router)->cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(RouterTest, CacheDisabledRouterNeverCaches) {
  std::vector<std::shared_ptr<ShardControl>> controls;
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "nocache");
  options.factory_override = InstrumentedFactory(&controls);
  options.cache_entries = 0;
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  const JoinMIQuery query = SketchBase((*router)->search_config());

  ASSERT_TRUE(
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict).ok());
  ASSERT_TRUE(
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict).ok());
  EXPECT_EQ(TotalSearches(controls), 4u);  // 2 shards x 2 queries
  const RouterCacheStats stats = (*router)->cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// --------------------------------------------------------------- Admission

TEST_F(RouterTest, AdmissionGateShedsWithStructuredRetryAfter) {
  std::vector<std::shared_ptr<ShardControl>> controls;
  RouterOptions options;
  options.manifest_path =
      BuildLayout(1, ShardPartitionPolicy::kRoundRobin, "gate");
  options.factory_override = InstrumentedFactory(&controls);
  options.cache_entries = 0;
  options.max_pending = 1;
  options.retry_after_hint_ms = 75;
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ(controls.size(), 1u);
  const JoinMIQuery query = SketchBase((*router)->search_config());

  // Occupy the single admission slot with a query blocked in its shard.
  controls[0]->block.store(true);
  std::thread holder([&] {
    auto held = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
    EXPECT_TRUE(held.ok()) << held.status();
  });
  while (!controls[0]->entered.load()) {
    std::this_thread::yield();
  }

  // The gate is full: the second query must shed, not queue.
  auto rejected =
      (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded()) << rejected.status();
  EXPECT_EQ(RetryAfterHintMs(rejected.status()), 75);
  EXPECT_EQ((*router)->admission().rejected(), 1u);
  EXPECT_EQ((*router)->metrics().CounterValue("router.admission.rejected"),
            1u);

  controls[0]->block.store(false);
  controls[0]->Release();
  holder.join();

  // Slot free again: the same query admits and answers.
  auto after = (*router)->SearchQuery(query, 3, 1, ShardQueryMode::kStrict);
  EXPECT_TRUE(after.ok()) << after.status();
}

// ----------------------------------------------------------------- Metrics

TEST_F(RouterTest, StatsJsonCarriesCacheAdmissionAndLatency) {
  RouterOptions options;
  options.manifest_path =
      BuildLayout(2, ShardPartitionPolicy::kRoundRobin, "stats");
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_TRUE((*router)->Search(*universe_.base, {"K", "Y"}, 3).ok());
  ASSERT_TRUE((*router)->Search(*universe_.base, {"K", "Y"}, 3).ok());

  const std::string json = (*router)->StatsJson();
  for (const char* name :
       {"\"router.cache.hits\":1", "\"router.cache.misses\":1",
        "\"router.cache.entries\":1", "\"router.queries.ok\":2",
        "\"router.admission.admitted\":2", "router.search.latency_us"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << " in " << json;
  }
}

TEST_F(RouterTest, OpenRequiresAManifestPath) {
  auto router = Router::Open(RouterOptions{});
  ASSERT_FALSE(router.ok());
  EXPECT_TRUE(router.status().IsInvalidArgument()) << router.status();
}

TEST_F(RouterTest, SearchableSeamDrivesTheRouterLikeAnIndex) {
  RouterOptions options;
  options.manifest_path =
      BuildLayout(3, ShardPartitionPolicy::kRoundRobin, "searchable");
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  auto reference = Unsharded(3);
  ASSERT_TRUE(reference.ok());
  // The free TopKJoinMISearch over the Searchable interface — existing
  // call sites upgrade by swapping the object, not the call.
  const Searchable& searchable = **router;
  auto via_seam =
      TopKJoinMISearch(*universe_.base, {"K", "Y"}, searchable, 3);
  ASSERT_TRUE(via_seam.ok()) << via_seam.status();
  ExpectBitIdentical(*reference, *via_seam);
}

}  // namespace
}  // namespace joinmi
