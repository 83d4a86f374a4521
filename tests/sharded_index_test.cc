// Tests for the sharded sketch index: bit-identical rank agreement with the
// unsharded search across shard counts and partitioning policies (including
// duplicated candidates straddling shard boundaries and empty shards), the
// "JMIM" manifest format, and corruption rejection — truncated, bit-flipped,
// and count-mismatched shard files must all fail with a clear
// InvalidArgument at load, never surface as wrong rankings.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/search.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/serialize.h"
#include "src/table/table.h"
#include "tests/scan_reference.h"

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

/// Base table whose target is a function of the key, plus a repository of
/// candidates with graded relevance — several of which tie exactly, so the
/// merge's tie-breaks are actually exercised.
struct Universe {
  std::shared_ptr<Table> base;
  TableRepository repository;
};

Universe MakeUniverse() {
  Universe universe;
  Rng rng(7171);
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
  // Exact twins: identical MI and join size, so cross-shard merges must
  // fall back to enumeration order to agree with the unsharded path.
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

/// Fresh per-test scratch directory under the gtest temp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_shards_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// `same_enumeration` is false only when ScanReference is compared with an
// index: the scan's global_index counts unsketchable pairs and the index's
// does not, so those hits are compared by ref alone.
void ExpectBitIdentical(const TopKSearchResult& expected,
                        const TopKSearchResult& actual,
                        bool same_enumeration = true) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    if (same_enumeration) {
      EXPECT_EQ(expected.hits[i].global_index, actual.hits[i].global_index)
          << i;
    }
    EXPECT_EQ(expected.hits[i].candidate.table_name,
              actual.hits[i].candidate.table_name) << i;
    EXPECT_EQ(expected.hits[i].candidate.key_column,
              actual.hits[i].candidate.key_column) << i;
    EXPECT_EQ(expected.hits[i].candidate.value_column,
              actual.hits[i].candidate.value_column) << i;
    // Bit-exact: the estimate pipeline is fully seeded.
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

// ------------------------------------------------------- Rank agreement

TEST(ShardedSearchTest, AgreesWithUnshardedForEveryShardCountAndPolicy) {
  // The acceptance gate: for every K and both partitioners the sharded
  // fan-out must return rankings bit-identical to the unsharded index path,
  // after a full manifest + shard-file round trip through BuildShards.
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);

  auto unsharded =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, 1);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();
  ASSERT_EQ(unsharded->hits.size(), 4u);

  for (ShardPartitionPolicy policy :
       {ShardPartitionPolicy::kRoundRobin,
        ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 2u, 3u, 7u}) {
      const std::string dir =
          ScratchDir(std::string("agree_") +
                     ShardPartitionPolicyToString(policy) + "_" +
                     std::to_string(num_shards));
      auto manifest_path = BuildShards(index, num_shards, policy, dir);
      ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
      auto sharded = ShardedSketchIndex::Load(*manifest_path);
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      EXPECT_EQ(sharded->num_shards(), num_shards);
      EXPECT_EQ(sharded->size(), index.size());
      for (size_t num_threads : {1u, 4u, 0u}) {
        auto via_shards = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                           *sharded, 10, num_threads);
        ASSERT_TRUE(via_shards.ok()) << via_shards.status();
        ExpectBitIdentical(*unsharded, *via_shards);
      }
      std::filesystem::remove_all(dir);
    }
  }
}

// Sixty candidates — many strips per shard — over prefixes of the base
// table's keys, each carrying the target through a different lossy map,
// several of them exact duplicates of another.
TableRepository MakeWideRepository(const Universe& universe) {
  const Table& base = *universe.base;
  const Column& keys = **base.GetColumn("K");
  TableRepository repository;
  for (size_t t = 0; t < 60; ++t) {
    const size_t rows = 40 + (t * 13) % (keys.size() - 40);
    std::vector<std::string> candidate_keys;
    std::vector<int64_t> values;
    for (size_t i = 0; i < rows; ++i) {
      candidate_keys.push_back(keys.StringAt(i));
      values.push_back(static_cast<int64_t>((i % 7) / (1 + t % 5) + t % 3));
    }
    repository
        .AddTable("w" + std::to_string(t),
                  MakeTwoColumnTable("K", std::move(candidate_keys), "V",
                                     std::move(values)))
        .Abort();
  }
  return repository;
}

TEST(ShardedSearchTest, ThreadAndShardGridMatchesUnshardedSingleThread) {
  // However the shared pool splits shards and strips between the caller
  // and its helpers, rankings stay bit-identical to one thread, unsharded
  // (itself checked against the serial ScanReference): whole-file and
  // paged shards.
  Universe universe = MakeUniverse();
  const TableRepository repository = MakeWideRepository(universe);
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(repository).ok());
  ASSERT_EQ(index.size(), 60u);
  const size_t k = 60;
  auto reference = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, k, 1);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->hits.size(), 30u);
  auto via_scan = ScanReference(*universe.base, {"K", "Y"}, repository, k,
                                MakeIndexConfig());
  ASSERT_TRUE(via_scan.ok()) << via_scan.status();
  ExpectBitIdentical(*reference, *via_scan, /*same_enumeration=*/false);

  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = 512;
  LocalShardLoadOptions small_pool;
  small_pool.pool_pages = 4;
  const std::pair<size_t, size_t> grid[] = {{1, 8}, {4, 4}, {7, 3}};
  for (const auto& [num_shards, num_threads] : grid) {
    const std::string tag = std::to_string(num_shards) + "x" +
                            std::to_string(num_threads);
    SCOPED_TRACE(tag);
    const std::string whole_dir = ScratchDir("grid_whole_" + tag);
    const std::string paged_dir = ScratchDir("grid_paged_" + tag);
    auto whole_manifest = BuildShards(
        index, num_shards, ShardPartitionPolicy::kRoundRobin, whole_dir);
    ASSERT_TRUE(whole_manifest.ok()) << whole_manifest.status();
    auto paged_manifest =
        BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                    paged_dir, paged_build);
    ASSERT_TRUE(paged_manifest.ok()) << paged_manifest.status();
    auto whole = ShardedSketchIndex::Load(*whole_manifest);
    ASSERT_TRUE(whole.ok()) << whole.status();
    auto paged = ShardedSketchIndex::Load(
        *paged_manifest, ShardedSketchIndex::LocalFileFactory(small_pool));
    ASSERT_TRUE(paged.ok()) << paged.status();
    for (int rep = 0; rep < 3; ++rep) {
      auto via_index = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, k,
                                        num_threads);
      ASSERT_TRUE(via_index.ok()) << via_index.status();
      ExpectBitIdentical(*reference, *via_index);
      auto via_whole = TopKJoinMISearch(*universe.base, {"K", "Y"}, *whole,
                                        k, num_threads);
      ASSERT_TRUE(via_whole.ok()) << via_whole.status();
      ExpectBitIdentical(*reference, *via_whole);
      auto via_paged = TopKJoinMISearch(*universe.base, {"K", "Y"}, *paged,
                                        k, num_threads);
      ASSERT_TRUE(via_paged.ok()) << via_paged.status();
      ExpectBitIdentical(*reference, *via_paged);
    }
    std::filesystem::remove_all(whole_dir);
    std::filesystem::remove_all(paged_dir);
  }
}

TEST(ShardedSearchTest, SmallKTruncatesIdenticallyToUnsharded) {
  // k smaller than the hit count forces per-shard truncation; the global
  // merge must still pick exactly what the unsharded partial sort picks —
  // with exact twins in the universe, only the global-index tie-break does.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  for (size_t k : {1u, 2u, 3u}) {
    auto unsharded =
        TopKJoinMISearch(*universe.base, {"K", "Y"}, index, k, 1);
    ASSERT_TRUE(unsharded.ok());
    ASSERT_EQ(unsharded->hits.size(), k);
    const std::string dir = ScratchDir("smallk_" + std::to_string(k));
    auto manifest_path = BuildShards(index, 3, ShardPartitionPolicy::kRoundRobin, dir);
    ASSERT_TRUE(manifest_path.ok());
    auto sharded = ShardedSketchIndex::Load(*manifest_path);
    ASSERT_TRUE(sharded.ok());
    auto via_shards =
        TopKJoinMISearch(*universe.base, {"K", "Y"}, *sharded, k, 1);
    ASSERT_TRUE(via_shards.ok());
    ExpectBitIdentical(*unsharded, *via_shards);
    std::filesystem::remove_all(dir);
  }
}

TEST(ShardedSearchTest, DuplicatedCandidatesStraddlingShardBoundaries) {
  // Four exact copies of one candidate tie on MI, join size, AND ref; with
  // round-robin over 3 shards the copies land on different shards, so only
  // the stored global insertion index keeps the merge aligned with the
  // unsharded ranking.
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  auto exact = *universe.repository.GetTable("exact");
  const ColumnPairRef ref{"exact", "K", "V"};
  for (int copy = 0; copy < 4; ++copy) {
    ASSERT_TRUE(index.AddCandidate(*exact, ref).ok());
  }
  auto noise = *universe.repository.GetTable("noise");
  ASSERT_TRUE(index.AddCandidate(*noise, {"noise", "K", "V"}).ok());

  auto unsharded =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, 1);
  ASSERT_TRUE(unsharded.ok());
  ASSERT_EQ(unsharded->hits.size(), 5u);

  for (size_t num_shards : {2u, 3u}) {
    const std::string dir = ScratchDir("dup_" + std::to_string(num_shards));
    auto manifest_path =
        BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin, dir);
    ASSERT_TRUE(manifest_path.ok());
    // The duplicates really do straddle shards: no shard holds all four.
    auto sharded = ShardedSketchIndex::Load(*manifest_path);
    ASSERT_TRUE(sharded.ok());
    for (const ShardManifestEntry& entry : sharded->manifest().shards) {
      EXPECT_LT(entry.candidate_count, 4u);
    }
    for (size_t num_threads : {1u, 4u}) {
      auto via_shards = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                         *sharded, 10, num_threads);
      ASSERT_TRUE(via_shards.ok());
      ExpectBitIdentical(*unsharded, *via_shards);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(ShardedSearchTest, EmptyShardsAreHarmless) {
  // 7 round-robin shards over 4 candidates leaves three shards empty; they
  // must load, answer with zero hits, and not disturb the merge.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);
  const std::string dir = ScratchDir("empty_shard");
  auto manifest_path =
      BuildShards(index, 7, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->num_shards(), 7u);
  size_t empty = 0;
  for (const ShardManifestEntry& entry : sharded->manifest().shards) {
    if (entry.candidate_count == 0) ++empty;
  }
  EXPECT_EQ(empty, 3u);
  auto unsharded = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, 1);
  auto via_shards =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, *sharded, 10, 1);
  ASSERT_TRUE(unsharded.ok());
  ASSERT_TRUE(via_shards.ok());
  ExpectBitIdentical(*unsharded, *via_shards);
  std::filesystem::remove_all(dir);
}

TEST(ShardedSearchTest, HashByDatasetKeepsTablesTogether) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  // Every candidate of one table must map to the same shard regardless of
  // its enumeration index.
  for (size_t i = 0; i < index.size(); ++i) {
    const ColumnPairRef& ref = index.candidates()[i].ref;
    EXPECT_EQ(AssignShard(ShardPartitionPolicy::kHashByDataset, i, ref, 5),
              AssignShard(ShardPartitionPolicy::kHashByDataset, i + 17, ref, 5));
  }
  // Round-robin depends only on the enumeration index.
  EXPECT_EQ(AssignShard(ShardPartitionPolicy::kRoundRobin, 9,
                        {"anything", "K", "V"}, 4),
            1u);
}

TEST(ShardedSearchTest, RejectsZeroKAndZeroShards) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  auto built = BuildShards(index, 0, ShardPartitionPolicy::kRoundRobin,
                           ScratchDir("zero"));
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());

  const std::string dir = ScratchDir("zerok");
  auto manifest_path =
      BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok());
  auto result = TopKJoinMISearch(*universe.base, {"K", "Y"}, *sharded, 0, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ Manifest format

TEST(ShardManifestTest, RoundTripsByteExactly) {
  ShardManifest manifest;
  manifest.policy = ShardPartitionPolicy::kHashByDataset;
  manifest.total_candidates = 5;
  manifest.shards.push_back(
      ShardManifestEntry{"shard_00000.jmix", 3, 0xDEADBEEFu, {0, 2, 4}});
  manifest.shards.push_back(
      ShardManifestEntry{"shard_00001.jmix", 2, 0xC0FFEEu, {1, 3}});
  ASSERT_TRUE(manifest.Validate().ok());
  const std::string data = SerializeManifest(manifest);
  auto restored = DeserializeManifest(data);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->policy, ShardPartitionPolicy::kHashByDataset);
  EXPECT_EQ(restored->total_candidates, 5u);
  ASSERT_EQ(restored->shards.size(), 2u);
  EXPECT_EQ(restored->shards[0].path, "shard_00000.jmix");
  EXPECT_EQ(restored->shards[1].checksum, 0xC0FFEEu);
  EXPECT_EQ(restored->shards[0].global_indices,
            (std::vector<uint64_t>{0, 2, 4}));
  EXPECT_EQ(SerializeManifest(*restored), data);
  EXPECT_TRUE(restored->config == JoinMIConfig());
}

TEST(ShardManifestTest, RoundTripsEmbeddedConfig) {
  // A router holding only the manifest can recover the exact JoinMIConfig
  // the shards were built under.
  ShardManifest manifest;
  manifest.total_candidates = 1;
  manifest.shards.push_back(ShardManifestEntry{"a.jmix", 1, 7, {0}});
  JoinMIConfig config;
  config.sketch_method = SketchMethod::kPrisk;
  config.sketch_capacity = 777;
  config.hash_seed = 13;
  config.sampling_seed = 99;
  config.aggregation = AggKind::kFirst;
  config.estimator = MIEstimatorKind::kDCKSG;
  config.mi_options.k = 5;
  config.min_join_size = 64;
  manifest.config = config;
  const std::string data = SerializeManifest(manifest);
  auto restored = DeserializeManifest(data);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->config == config);
  EXPECT_EQ(SerializeManifest(*restored), data);
}

TEST(ShardManifestTest, BuildShardsEmbedsTheIndexConfig) {
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("embed_config");
  auto manifest_path =
      BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->config == config);
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestTest, ValidateCatchesStructuralLies) {
  ShardManifest manifest;
  manifest.total_candidates = 2;
  manifest.shards.push_back(ShardManifestEntry{"a.jmix", 1, 0, {0}});
  manifest.shards.push_back(ShardManifestEntry{"b.jmix", 1, 0, {1}});
  ASSERT_TRUE(manifest.Validate().ok());

  ShardManifest no_shards;
  EXPECT_TRUE(no_shards.Validate().IsInvalidArgument());

  ShardManifest count_lie = manifest;
  count_lie.shards[0].candidate_count = 2;  // indices list still has 1
  EXPECT_TRUE(count_lie.Validate().IsInvalidArgument());

  ShardManifest duplicate = manifest;
  duplicate.shards[1].global_indices = {0};  // 0 claimed twice
  EXPECT_TRUE(duplicate.Validate().IsInvalidArgument());

  ShardManifest out_of_range = manifest;
  out_of_range.shards[1].global_indices = {7};
  EXPECT_TRUE(out_of_range.Validate().IsInvalidArgument());

  ShardManifest not_increasing = manifest;
  not_increasing.shards[0].candidate_count = 2;
  not_increasing.shards[0].global_indices = {1, 0};
  not_increasing.shards[1].candidate_count = 0;
  not_increasing.shards[1].global_indices = {};
  EXPECT_TRUE(not_increasing.Validate().IsInvalidArgument());
}

TEST(ShardManifestTest, RejectsCorruptedBuffers) {
  ShardManifest manifest;
  manifest.total_candidates = 1;
  manifest.shards.push_back(ShardManifestEntry{"a.jmix", 1, 42, {0}});
  const std::string data = SerializeManifest(manifest);
  ASSERT_TRUE(DeserializeManifest(data).ok());

  std::string bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeManifest(bad_magic).ok());

  std::string bad_version = data;
  bad_version[4] = 99;
  EXPECT_FALSE(DeserializeManifest(bad_version).ok());

  std::string bad_policy = data;
  bad_policy[8] = 9;  // after magic(4) + version(4)
  EXPECT_FALSE(DeserializeManifest(bad_policy).ok());

  for (size_t len = 0; len < data.size(); len += 3) {
    EXPECT_FALSE(DeserializeManifest(data.substr(0, len)).ok()) << len;
  }
  EXPECT_FALSE(DeserializeManifest(data + "x").ok());
}

// --------------------------------------------------- Corruption at load

struct ShardedFixture {
  std::string dir;
  std::string manifest_path;
  std::string shard0_path;
};

ShardedFixture BuildFixture(const std::string& name) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  index.IndexRepository(universe.repository).status().Abort();
  ShardedFixture fixture;
  fixture.dir = ScratchDir(name);
  auto manifest_path =
      BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin, fixture.dir);
  manifest_path.status().Abort();
  fixture.manifest_path = *manifest_path;
  fixture.shard0_path = fixture.dir + "/shard_00000.jmix";
  return fixture;
}

std::string ReadAll(const std::string& path) {
  return *wire::ReadFileBytes(path);
}

void WriteAll(const std::string& path, const std::string& data) {
  wire::WriteFileBytes(data, path).Abort();
}

TEST(ShardedLoadCorruptionTest, TruncatedShardFileIsRejected) {
  ShardedFixture fixture = BuildFixture("truncated");
  const std::string bytes = ReadAll(fixture.shard0_path);
  WriteAll(fixture.shard0_path, bytes.substr(0, bytes.size() / 2));
  auto sharded = ShardedSketchIndex::Load(fixture.manifest_path);
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsInvalidArgument()) << sharded.status();
  EXPECT_NE(sharded.status().message().find("checksum"), std::string::npos)
      << sharded.status();
  std::filesystem::remove_all(fixture.dir);
}

TEST(ShardedLoadCorruptionTest, BitFlippedShardFileIsRejected) {
  ShardedFixture fixture = BuildFixture("bitflip");
  std::string bytes = ReadAll(fixture.shard0_path);
  // Flip a bit deep in the sketch payload — past every header the blob
  // parser checks, where only the manifest checksum can catch it.
  bytes[bytes.size() - 9] ^= 0x40;
  WriteAll(fixture.shard0_path, bytes);
  auto sharded = ShardedSketchIndex::Load(fixture.manifest_path);
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsInvalidArgument()) << sharded.status();
  EXPECT_NE(sharded.status().message().find("checksum"), std::string::npos);
  std::filesystem::remove_all(fixture.dir);
}

TEST(ShardedLoadCorruptionTest, SwappedShardFilesAreRejected) {
  // Both files are individually valid indexes; only the manifest checksum
  // knows they are in the wrong slots.
  ShardedFixture fixture = BuildFixture("swapped");
  const std::string shard1_path = fixture.dir + "/shard_00001.jmix";
  const std::string a = ReadAll(fixture.shard0_path);
  const std::string b = ReadAll(shard1_path);
  WriteAll(fixture.shard0_path, b);
  WriteAll(shard1_path, a);
  auto sharded = ShardedSketchIndex::Load(fixture.manifest_path);
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsInvalidArgument());
  std::filesystem::remove_all(fixture.dir);
}

TEST(ShardedLoadCorruptionTest, CandidateCountMismatchIsRejected) {
  // Tamper the manifest so it validates structurally but disagrees with the
  // shard file's actual candidate count: drop shard 1's last candidate and
  // shrink the total accordingly (the dropped index was the global max), and
  // re-point the checksum at the real file so only the count check can fire.
  ShardedFixture fixture = BuildFixture("count_mismatch");
  auto manifest = *ReadManifestFile(fixture.manifest_path);
  ShardManifestEntry& entry = manifest.shards[1];
  ASSERT_GE(entry.candidate_count, 1u);
  ASSERT_EQ(entry.global_indices.back(), manifest.total_candidates - 1);
  entry.global_indices.pop_back();
  entry.candidate_count -= 1;
  manifest.total_candidates -= 1;
  ASSERT_TRUE(manifest.Validate().ok());
  ASSERT_TRUE(WriteManifestFile(manifest, fixture.manifest_path).ok());

  auto sharded = ShardedSketchIndex::Load(fixture.manifest_path);
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsInvalidArgument()) << sharded.status();
  std::filesystem::remove_all(fixture.dir);
}

TEST(ShardedLoadCorruptionTest, MissingShardFileIsRejected) {
  ShardedFixture fixture = BuildFixture("missing");
  std::remove(fixture.shard0_path.c_str());
  EXPECT_FALSE(ShardedSketchIndex::Load(fixture.manifest_path).ok());
  std::filesystem::remove_all(fixture.dir);
}

// ----------------------------------------------- Client-level validation

// ------------------------------------------------ Shard files as records

TEST(ShardFileTest, IndexBufferIsHeaderCountAndCandidateRecords) {
  // The invariant shard writing and compaction rely on: a "JMIX" buffer is
  // its header, the candidate count, then each candidate's
  // EncodeCandidateRecord bytes — nothing between or after them.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_GT(index.size(), 1u);
  std::string expected;
  wire::AppendRaw(&expected, "JMIX", 4);
  wire::AppendPod<uint32_t>(&expected, 1);
  AppendJoinMIConfig(&expected, index.config());
  wire::AppendPod<uint64_t>(&expected, index.size());
  std::vector<std::string> records;
  for (const IndexedCandidate& candidate : index.candidates()) {
    records.push_back(
        EncodeCandidateRecord(candidate.ref, candidate.sketch()));
    expected += records.back();
  }
  EXPECT_EQ(SerializeIndex(index), expected);
  EXPECT_EQ(EncodeIndexRecords(index.config(), records), expected);

  auto decoded = DecodeIndexRecords(expected);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->config == index.config());
  EXPECT_EQ(decoded->records, records);
}

TEST(ShardFileTest, VerifyPassesFreshShardsAndNamesTheBrokenCandidate) {
  ShardedFixture fixture = BuildFixture("verify");
  auto manifest = ReadManifestFile(fixture.manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  for (const ShardManifestEntry& entry : manifest->shards) {
    EXPECT_TRUE(VerifyShardFile(fixture.dir + "/" + entry.path,
                                ShardFileFormat::kWholeFile)
                    .ok())
        << entry.path;
  }
  const std::string intact = ReadAll(fixture.shard0_path);
  auto decoded = DecodeIndexRecords(intact);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const size_t count = decoded->records.size();
  ASSERT_GT(count, 1u);
  const std::string last = "candidate " + std::to_string(count - 1) +
                           " of " + std::to_string(count);

  // Truncated: the file ends one byte inside the last candidate.
  WriteAll(fixture.shard0_path, intact.substr(0, intact.size() - 1));
  Status truncated =
      VerifyShardFile(fixture.shard0_path, ShardFileFormat::kWholeFile);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.message().find(last), std::string::npos) << truncated;

  // A flipped sketch byte: the low byte of candidate 1's hash seed, which
  // no length or checksum inside the file covers.
  auto candidate = DecodeCandidateRecord(decoded->records[1]);
  ASSERT_TRUE(candidate.ok()) << candidate.status();
  const std::string sketch = SerializeSketch(candidate->sketch);
  const size_t at = intact.find(sketch);
  ASSERT_NE(at, std::string::npos);
  std::string flipped = intact;
  flipped[at + 10] ^= 0x01;  // magic(4) + version(4) + method + side
  WriteAll(fixture.shard0_path, flipped);
  Status bad_seed =
      VerifyShardFile(fixture.shard0_path, ShardFileFormat::kWholeFile);
  ASSERT_FALSE(bad_seed.ok());
  EXPECT_TRUE(bad_seed.IsInvalidArgument()) << bad_seed;
  EXPECT_NE(bad_seed.message().find("candidate 1 of " +
                                    std::to_string(count)),
            std::string::npos)
      << bad_seed;
  EXPECT_NE(bad_seed.message().find("hash seed"), std::string::npos)
      << bad_seed;
  std::filesystem::remove_all(fixture.dir);
}

TEST(LocalShardClientTest, RejectsInconsistentGlobalIndexMappings) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  SketchIndex copy = DeserializeIndex(SerializeIndex(index)).ValueOrDie();
  auto wrong_size = LocalShardClient::Create(std::move(copy), {0, 1});
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_TRUE(wrong_size.status().IsInvalidArgument());

  SketchIndex copy2 = DeserializeIndex(SerializeIndex(index)).ValueOrDie();
  auto not_increasing =
      LocalShardClient::Create(std::move(copy2), {0, 2, 1, 3});
  ASSERT_FALSE(not_increasing.ok());
  EXPECT_TRUE(not_increasing.status().IsInvalidArgument());
}

TEST(ShardedSketchIndexTest, CreateRejectsConfigDisagreement) {
  // Two shards built under different hash seeds can never serve one query;
  // Create must refuse to assemble them.
  Universe universe = MakeUniverse();
  auto exact = *universe.repository.GetTable("exact");

  SketchIndex shard0(MakeIndexConfig());
  ASSERT_TRUE(shard0.AddCandidate(*exact, {"exact", "K", "V"}).ok());
  JoinMIConfig other = MakeIndexConfig();
  other.hash_seed = 99;
  SketchIndex shard1(other);
  ASSERT_TRUE(shard1.AddCandidate(*exact, {"exact", "K", "V"}).ok());

  ShardManifest manifest;
  manifest.total_candidates = 2;
  manifest.shards.push_back(ShardManifestEntry{"s0", 1, 0, {0}});
  manifest.shards.push_back(ShardManifestEntry{"s1", 1, 0, {1}});
  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.push_back(
      LocalShardClient::Create(std::move(shard0), {0}).ValueOrDie());
  clients.push_back(
      LocalShardClient::Create(std::move(shard1), {1}).ValueOrDie());
  auto sharded =
      ShardedSketchIndex::Create(std::move(manifest), std::move(clients));
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsInvalidArgument());
  EXPECT_NE(sharded.status().message().find("JoinMIConfig"),
            std::string::npos);
}

TEST(ShardedSketchIndexTest, QueryWithMismatchedSeedFailsDeterministically) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("seed_mismatch");
  auto manifest_path =
      BuildShards(index, 3, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok());
  JoinMIConfig other_seed = MakeIndexConfig();
  other_seed.hash_seed = 7;
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", other_seed);
  for (size_t num_threads : {1u, 4u}) {
    auto result = sharded->Search(query, 10, num_threads);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedSketchIndexTest, ZeroShardManifestsAreRejectedEverywhere) {
  // Regression: config() dereferences clients_[0], so nothing may ever
  // assemble a sharded index with zero shards. Every entry point —
  // Create, Load (via manifest validation), and BuildShards(0) — must
  // refuse with InvalidArgument.
  ShardManifest empty_manifest;
  auto created = ShardedSketchIndex::Create(empty_manifest, {});
  ASSERT_FALSE(created.ok());
  EXPECT_TRUE(created.status().IsInvalidArgument());

  // A zero-shard manifest cannot even be written for Load to find.
  EXPECT_TRUE(WriteManifestFile(empty_manifest, ScratchDir("zeroshard") +
                                                    "/manifest.jmim")
                  .IsInvalidArgument());

  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  auto built = BuildShards(index, 0, ShardPartitionPolicy::kRoundRobin,
                           ScratchDir("zeroshard_build"));
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

namespace degraded_local {

/// A ShardClient that always fails Search — the local stand-in for a
/// crashed shard server, letting the degraded merge be tested without
/// sockets.
class FailingShardClient : public ShardClient {
 public:
  FailingShardClient(JoinMIConfig config, size_t num_candidates)
      : config_(std::move(config)), num_candidates_(num_candidates) {}
  const JoinMIConfig& config() const override { return config_; }
  size_t num_candidates() const override { return num_candidates_; }
  Result<TopKSearchResult> Search(const JoinMIQuery&, size_t,
                                  size_t) const override {
    return Status::IOError("simulated shard outage");
  }

 private:
  JoinMIConfig config_;
  size_t num_candidates_;
};

}  // namespace degraded_local

TEST(ShardedSketchIndexTest, DegradedModeMergesHealthyShardsOnly) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("degraded_local");
  auto manifest_path =
      BuildShards(index, 3, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());

  // Assemble a router whose shard 1 always fails, shards 0/2 serve from
  // the real files.
  std::vector<std::unique_ptr<ShardClient>> clients;
  for (size_t s = 0; s < manifest->shards.size(); ++s) {
    if (s == 1) {
      clients.push_back(std::make_unique<degraded_local::FailingShardClient>(
          MakeIndexConfig(), manifest->shards[s].candidate_count));
    } else {
      auto client = ShardedSketchIndex::LocalFileFactory()(*manifest, s, dir);
      ASSERT_TRUE(client.ok()) << client.status();
      clients.push_back(std::move(*client));
    }
  }
  auto sharded =
      ShardedSketchIndex::Create(*manifest, std::move(clients));
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  auto query = JoinMIQuery::Create(*universe.base, "K", "Y",
                                   MakeIndexConfig());
  ASSERT_TRUE(query.ok());

  for (size_t num_threads : {1u, 4u}) {
    // Strict: the failure wins, named by shard.
    auto strict =
        sharded->Search(*query, 10, num_threads, ShardQueryMode::kStrict);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.status().message().find("shard 1"), std::string::npos);

    // Degraded: hits cover shards 0 and 2 only; every hit's global index
    // belongs to a healthy shard, and the outage is recorded.
    auto degraded = sharded->Search(*query, 10, num_threads,
                                    ShardQueryMode::kDegraded);
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    ASSERT_EQ(degraded->shard_failures.size(), 1u);
    EXPECT_EQ(degraded->shard_failures[0].shard, 1u);
    EXPECT_TRUE(degraded->shard_failures[0].status.IsIOError());
    EXPECT_EQ(degraded->num_candidates,
              index.size() - manifest->shards[1].candidate_count);
    for (const SearchHit& hit : degraded->hits) {
      EXPECT_NE(hit.global_index % 3, 1u)
          << "hit from the dead round-robin shard leaked into the merge";
    }
    EXPECT_FALSE(degraded->hits.empty());
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedSketchIndexTest, EmptyIndexShardsAndSearches) {
  SketchIndex index(MakeIndexConfig());
  const std::string dir = ScratchDir("empty_index");
  auto manifest_path =
      BuildShards(index, 3, ShardPartitionPolicy::kHashByDataset, dir);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->size(), 0u);
  Universe universe = MakeUniverse();
  auto result =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, *sharded, 5, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->hits.empty());
  EXPECT_EQ(result->num_candidates, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace joinmi
