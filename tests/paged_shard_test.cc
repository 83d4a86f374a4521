// Tests for paged shard storage end to end: the "JMPS" file format
// (round trips with records spilling across pages, open-time validation
// with byte-accounted errors, page- and record-walking verification), the
// PagedShardClient (bit-identical rankings to the in-memory path across
// shard counts, policies, thread counts, and k — including under pools
// small enough to evict mid-query, proven by the eviction counter), the
// manifest's per-shard format tags (mixed formats), and a
// ShardServer actually serving a paged shard over RPC.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/serialize.h"
#include "src/storage/paged_shard_file.h"
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

/// Base table whose target is a function of the key, plus candidates of
/// graded relevance including exact twins (as in sharded_index_test) so
/// tie-breaks are exercised.
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
  const std::string dir = testing::TempDir() + "/joinmi_paged_" + name;
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
    EXPECT_EQ(expected.hits[i].candidate.ToString(),
              actual.hits[i].candidate.ToString()) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

// Flips one byte inside page `page`'s payload area of the JMPS file.
void CorruptPagePayload(const std::string& path, uint64_t page,
                        uint32_t page_size) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  const std::streamoff offset =
      static_cast<std::streamoff>(storage::kPagedShardHeaderSize) +
      static_cast<std::streamoff>(page) * page_size +
      storage::kPageHeaderSize + 3;
  file.seekg(offset);
  char byte = 0;
  file.get(byte);
  file.seekp(offset);
  file.put(static_cast<char>(byte ^ 0x20));
  ASSERT_TRUE(file.good());
}

// ------------------------------------------------------- JMPS file format

TEST(PagedShardFileTest, RoundTripsRecordsAcrossPageSpills) {
  // Page size 64 leaves 48 payload bytes; these lengths cover exact fits,
  // one-byte spills, and records spanning several pages.
  const uint32_t page_size = 64;
  std::vector<std::string> records;
  size_t next = 0;
  for (size_t length : {1u, 47u, 48u, 49u, 100u, 200u, 5u}) {
    std::string record;
    for (size_t i = 0; i < length; ++i) {
      record.push_back(static_cast<char>('a' + (next++ % 23)));
    }
    records.push_back(std::move(record));
  }
  const JoinMIConfig config = MakeIndexConfig();
  auto bytes = storage::BuildPagedShardBytes(config, records, page_size);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  const std::string dir = ScratchDir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard.jmps";
  ASSERT_TRUE(wire::WriteFileBytes(*bytes, path).ok());

  auto file = storage::PagedShardFile::Open(path, /*pool_pages=*/2);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ((*file)->num_records(), records.size());
  EXPECT_EQ((*file)->page_size(), page_size);
  EXPECT_GT((*file)->page_count(), 5u);
  EXPECT_EQ((*file)->config().ToString(), config.ToString());
  for (size_t i = 0; i < records.size(); ++i) {
    auto record = (*file)->ReadRecord(i);
    ASSERT_TRUE(record.ok()) << i << ": " << record.status();
    EXPECT_EQ(*record, records[i]) << i;
  }
  // Everything faulted through a 2-frame pool over a >5 page file: the
  // spilled reads must have evicted.
  EXPECT_GT((*file)->pool_stats().evictions, 0u);
  EXPECT_FALSE((*file)->ReadRecord(records.size()).ok());

  // The open receipt: header + directory only.
  const storage::PagedOpenStats& stats = (*file)->open_stats();
  EXPECT_EQ(stats.startup_bytes_read,
            storage::kPagedShardHeaderSize + records.size() * 16);
  EXPECT_EQ(stats.file_size, bytes->size());
  EXPECT_LT(stats.startup_bytes_read, stats.file_size);
  std::filesystem::remove_all(dir);
}

TEST(PagedShardFileTest, BuildRejectsBadInputs) {
  const JoinMIConfig config = MakeIndexConfig();
  EXPECT_FALSE(storage::BuildPagedShardBytes(config, {"x"}, 8).ok());
  auto empty_record = storage::BuildPagedShardBytes(config, {"a", ""}, 4096);
  ASSERT_FALSE(empty_record.ok());
  EXPECT_NE(empty_record.status().message().find("record 1"),
            std::string::npos);
  // Zero records is a valid (empty) shard.
  auto empty_shard = storage::BuildPagedShardBytes(config, {}, 4096);
  ASSERT_TRUE(empty_shard.ok()) << empty_shard.status();
  EXPECT_EQ(empty_shard->size(), storage::kPagedShardHeaderSize);
}

TEST(PagedShardFileTest, OpenReportsTruncationWithByteCounts) {
  const JoinMIConfig config = MakeIndexConfig();
  auto bytes = storage::BuildPagedShardBytes(
      config, {std::string(100, 'r'), std::string(90, 's')}, 64);
  ASSERT_TRUE(bytes.ok());
  const std::string dir = ScratchDir("truncation");
  std::filesystem::create_directories(dir);
  const std::string header_size =
      std::to_string(storage::kPagedShardHeaderSize);

  // Empty file: both the actual and the required size are in the message.
  const std::string empty_path = dir + "/empty.jmps";
  ASSERT_TRUE(wire::WriteFileBytes("", empty_path).ok());
  auto empty = storage::PagedShardFile::Open(empty_path, 2);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("0 bytes"), std::string::npos)
      << empty.status();
  EXPECT_NE(empty.status().message().find(header_size), std::string::npos)
      << empty.status();

  // Header-only: pages and directory missing.
  const std::string header_path = dir + "/header.jmps";
  ASSERT_TRUE(wire::WriteFileBytes(
                  bytes->substr(0, storage::kPagedShardHeaderSize),
                  header_path)
                  .ok());
  auto header_only = storage::PagedShardFile::Open(header_path, 2);
  ASSERT_FALSE(header_only.ok());
  EXPECT_NE(header_only.status().message().find("truncated"),
            std::string::npos)
      << header_only.status();

  // Cut mid-directory and mid-page: still a truncation, with sizes.
  for (size_t cut : {bytes->size() - 7, bytes->size() - 70}) {
    const std::string cut_path = dir + "/cut.jmps";
    ASSERT_TRUE(wire::WriteFileBytes(bytes->substr(0, cut), cut_path).ok());
    auto opened = storage::PagedShardFile::Open(cut_path, 2);
    ASSERT_FALSE(opened.ok()) << cut;
    EXPECT_NE(opened.status().message().find("truncated"), std::string::npos)
        << opened.status();
    EXPECT_NE(opened.status().message().find(std::to_string(cut)),
              std::string::npos)
        << opened.status();
  }

  // Trailing garbage is not a truncation and says so.
  const std::string garbage_path = dir + "/garbage.jmps";
  ASSERT_TRUE(wire::WriteFileBytes(*bytes + "xx", garbage_path).ok());
  auto garbage = storage::PagedShardFile::Open(garbage_path, 2);
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("trailing garbage"),
            std::string::npos)
      << garbage.status();
  std::filesystem::remove_all(dir);
}

TEST(PagedShardFileTest, VerifyWalksPagesAndNamesTheBadOne) {
  const JoinMIConfig config = MakeIndexConfig();
  std::vector<std::string> records;
  for (size_t i = 0; i < 6; ++i) {
    records.push_back(std::string(120 + i, static_cast<char>('a' + i)));
  }
  const uint32_t page_size = 64;
  auto bytes = storage::BuildPagedShardBytes(config, records, page_size);
  ASSERT_TRUE(bytes.ok());
  const std::string dir = ScratchDir("verify");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard.jmps";
  ASSERT_TRUE(wire::WriteFileBytes(*bytes, path).ok());

  uint64_t bad_page = 99;
  ASSERT_TRUE(storage::VerifyPagedShardFile(path, &bad_page).ok());

  CorruptPagePayload(path, /*page=*/2, page_size);
  Status corrupt = storage::VerifyPagedShardFile(path, &bad_page);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(bad_page, 2u);
  EXPECT_NE(corrupt.message().find("corrupt"), std::string::npos) << corrupt;

  // A whole-file "JMIX" index is not a paged shard and must fail cleanly.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string jmix_path = dir + "/index.jmix";
  ASSERT_TRUE(WriteIndexFile(index, jmix_path).ok());
  EXPECT_FALSE(storage::VerifyPagedShardFile(jmix_path, &bad_page).ok());
  std::filesystem::remove_all(dir);
}

TEST(PagedShardFileTest, VerifyDecodesEveryRecordAndNamesTheBadOne) {
  // Candidate 1's sketch carries a flipped hash-seed byte, and the shard is
  // framed after the flip, so every page checksum holds: only decoding the
  // records finds it, as a "JMIX" verify does.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  std::vector<std::string> records;
  for (const IndexedCandidate& candidate : index.candidates()) {
    records.push_back(
        EncodeCandidateRecord(candidate.ref, candidate.sketch()));
  }
  const std::string of_count = " of " + std::to_string(records.size());
  const uint32_t page_size = 512;
  const std::string dir = ScratchDir("verify_records");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard.jmps";
  auto intact = storage::BuildPagedShardBytes(index.config(), records,
                                              page_size);
  ASSERT_TRUE(intact.ok()) << intact.status();
  ASSERT_TRUE(wire::WriteFileBytes(*intact, path).ok());
  EXPECT_TRUE(VerifyShardFile(path, ShardFileFormat::kPaged).ok());

  const std::string sketch = SerializeSketch(index.candidates()[1].sketch());
  const size_t at = records[1].find(sketch);
  ASSERT_NE(at, std::string::npos);
  records[1][at + 10] ^= 0x01;  // magic(4) + version(4) + method + side
  auto flipped = storage::BuildPagedShardBytes(index.config(), records,
                                               page_size);
  ASSERT_TRUE(flipped.ok()) << flipped.status();
  ASSERT_TRUE(wire::WriteFileBytes(*flipped, path).ok());
  uint64_t bad_page = 0;
  ASSERT_TRUE(storage::VerifyPagedShardFile(path, &bad_page).ok());
  Status bad_seed = VerifyShardFile(path, ShardFileFormat::kPaged);
  ASSERT_FALSE(bad_seed.ok());
  EXPECT_TRUE(bad_seed.IsInvalidArgument()) << bad_seed;
  EXPECT_NE(bad_seed.message().find("candidate 1" + of_count),
            std::string::npos)
      << bad_seed;
  EXPECT_NE(bad_seed.message().find("hash seed"), std::string::npos)
      << bad_seed;
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- Candidate codec

TEST(PagedShardCodecTest, CandidateRecordsRoundTrip) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);
  for (const IndexedCandidate& candidate : index.candidates()) {
    const std::string record =
        EncodeCandidateRecord(candidate.ref, candidate.sketch());
    auto decoded = DecodeCandidateRecord(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->ref.ToString(), candidate.ref.ToString());
    EXPECT_EQ(SerializeSketch(decoded->sketch),
              SerializeSketch(candidate.sketch()));
    EXPECT_FALSE(DecodeCandidateRecord(record + "x").ok());
    EXPECT_FALSE(DecodeCandidateRecord(record.substr(0, record.size() / 2))
                     .ok());
  }
}

// --------------------------------------------------------- Rank agreement

TEST(PagedShardSearchTest, AgreesWithWholeFileAndUnshardedEverywhere) {
  // The tentpole acceptance gate: paged shards must return rankings
  // bit-identical to both the whole-file sharded path and the unsharded
  // index, for every shard count, policy, thread count, and k — loaded
  // through a pool small enough (1 page of 256 bytes) that every query
  // faults and evicts continuously.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);

  LocalShardLoadOptions tiny_pool;
  tiny_pool.pool_pages = 1;
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = 256;

  for (ShardPartitionPolicy policy :
       {ShardPartitionPolicy::kRoundRobin,
        ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 2u, 3u}) {
      const std::string tag = std::string(ShardPartitionPolicyToString(policy)) +
                              "_" + std::to_string(num_shards);
      const std::string whole_dir = ScratchDir("agree_whole_" + tag);
      const std::string paged_dir = ScratchDir("agree_paged_" + tag);
      auto whole_manifest = BuildShards(index, num_shards, policy, whole_dir);
      ASSERT_TRUE(whole_manifest.ok()) << whole_manifest.status();
      auto paged_manifest =
          BuildShards(index, num_shards, policy, paged_dir, paged_build);
      ASSERT_TRUE(paged_manifest.ok()) << paged_manifest.status();

      auto whole = ShardedSketchIndex::Load(*whole_manifest);
      ASSERT_TRUE(whole.ok()) << whole.status();
      auto paged = ShardedSketchIndex::Load(
          *paged_manifest,
          ShardedSketchIndex::LocalFileFactory(tiny_pool));
      ASSERT_TRUE(paged.ok()) << paged.status();
      for (const ShardManifestEntry& entry : paged->manifest().shards) {
        EXPECT_EQ(entry.format, ShardFileFormat::kPaged);
      }

      for (size_t num_threads : {1u, 4u}) {
        for (size_t k : {1u, 2u, 7u}) {
          auto unsharded = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                            index, k, num_threads);
          ASSERT_TRUE(unsharded.ok()) << unsharded.status();
          auto via_whole = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                            *whole, k, num_threads);
          ASSERT_TRUE(via_whole.ok()) << via_whole.status();
          auto via_paged = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                            *paged, k, num_threads);
          ASSERT_TRUE(via_paged.ok()) << via_paged.status();
          ExpectBitIdentical(*unsharded, *via_whole);
          ExpectBitIdentical(*unsharded, *via_paged);
        }
      }
      std::filesystem::remove_all(whole_dir);
      std::filesystem::remove_all(paged_dir);
    }
  }
}

TEST(PagedShardSearchTest, EvictionReallyHappensAndDoesNotChangeRankings) {
  // Direct client-level check with counters: a 1-frame pool over a
  // many-page shard must evict mid-query (misses > capacity, evictions
  // > 0) and still match the in-memory LocalShardClient hit for hit.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("evict");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = 256;
  auto manifest_path = BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  const std::string shard_path = dir + "/" + manifest->shards[0].path;

  PagedShardClient::Options options;
  options.pool_pages = 1;
  auto paged_client = PagedShardClient::Open(
      shard_path, manifest->shards[0].global_indices, options);
  ASSERT_TRUE(paged_client.ok()) << paged_client.status();
  EXPECT_EQ((*paged_client)->num_candidates(), 4u);
  EXPECT_EQ((*paged_client)->pool_capacity(), 1u);

  auto loaded = ReadIndexFile(shard_path);
  ASSERT_FALSE(loaded.ok());  // a JMPS file is not a JMIX index
  auto whole_index = DeserializeIndex(SerializeIndex(index));
  ASSERT_TRUE(whole_index.ok());
  auto local_client = LocalShardClient::Create(
      std::move(*whole_index), manifest->shards[0].global_indices);
  ASSERT_TRUE(local_client.ok()) << local_client.status();

  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", MakeIndexConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  for (size_t num_threads : {1u, 4u}) {
    for (size_t k : {1u, 2u, 7u}) {
      auto expected = (*local_client)->Search(*query, k, num_threads);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto actual = (*paged_client)->Search(*query, k, num_threads);
      ASSERT_TRUE(actual.ok()) << actual.status();
      ExpectBitIdentical(*expected, *actual);
    }
  }
  const storage::BufferPoolStats stats = (*paged_client)->pool_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, (*paged_client)->pool_capacity());
  std::filesystem::remove_all(dir);
}

TEST(PagedShardSearchTest, EmptyPagedShardsAreHarmless) {
  // 7 round-robin shards over 4 candidates: three shards hold nothing —
  // zero pages, directory-only files — and must still load and merge.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("empty");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  auto manifest_path = BuildShards(index, 7, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->num_shards(), 7u);
  auto unsharded = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, 1);
  auto via_shards =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, *sharded, 10, 1);
  ASSERT_TRUE(unsharded.ok());
  ASSERT_TRUE(via_shards.ok());
  ExpectBitIdentical(*unsharded, *via_shards);
  std::filesystem::remove_all(dir);
}

TEST(PagedShardSearchTest, SearchRejectsQueryConfigDrift) {
  // As over RPC: a query built under another estimator is refused rather
  // than scored under the shard's, and min_join_size alone may differ.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("drift");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  auto manifest_path = BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto sharded = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  JoinMIConfig drifted = MakeIndexConfig();
  drifted.estimator = MIEstimatorKind::kMLE;
  auto query = JoinMIQuery::Create(*universe.base, "K", "Y", drifted);
  ASSERT_TRUE(query.ok());
  auto result = sharded->Search(*query, 3, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();

  JoinMIConfig relaxed = MakeIndexConfig();
  relaxed.min_join_size = 1;
  auto relaxed_query = JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
  ASSERT_TRUE(relaxed_query.ok());
  auto relaxed_result = sharded->Search(*relaxed_query, 3, 1);
  ASSERT_TRUE(relaxed_result.ok()) << relaxed_result.status();
  std::filesystem::remove_all(dir);
}

TEST(PagedShardSearchTest, CorruptPageFailsOnlyTheCandidatesTouchingIt) {
  // Flip one byte in one page: candidates whose records touch that page
  // become hard errors, every other candidate keeps answering, and the
  // query as a whole still succeeds.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("corrupt");
  const uint32_t page_size = 256;
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = page_size;
  auto manifest_path = BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok());
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  const std::string shard_path = dir + "/" + manifest->shards[0].path;

  // Pick an interior page of record 0's span and count which records'
  // byte ranges intersect it — corruption must fail exactly those.
  const uint64_t capacity = storage::PagePayloadCapacity(page_size);
  std::vector<storage::RecordLocation> directory;
  {
    auto file = storage::PagedShardFile::Open(shard_path, 2);
    ASSERT_TRUE(file.ok()) << file.status();
    directory = (*file)->directory();
    ASSERT_GE((*file)->page_count(), 3u);
  }
  const uint64_t bad_page = 1;
  size_t touching = 0;
  for (const storage::RecordLocation& loc : directory) {
    const uint64_t start = loc.page * capacity + loc.offset;
    const uint64_t end = start + loc.length;
    if (start < (bad_page + 1) * capacity && end > bad_page * capacity) {
      ++touching;
    }
  }
  ASSERT_GE(touching, 1u);
  ASSERT_LT(touching, directory.size());

  CorruptPagePayload(shard_path, bad_page, page_size);
  auto client = PagedShardClient::Open(shard_path,
                                       manifest->shards[0].global_indices);
  ASSERT_TRUE(client.ok()) << client.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", MakeIndexConfig());
  ASSERT_TRUE(query.ok());
  auto result = (*client)->Search(*query, 10, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_errors, touching);
  EXPECT_EQ(result->num_evaluated, directory.size() - touching);
  EXPECT_EQ(result->hits.size(), directory.size() - touching);
  std::filesystem::remove_all(dir);
}

TEST(PagedShardSearchTest, OpenValidatesGlobalIndices) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("indices");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  auto manifest_path = BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok());
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  const std::string shard_path = dir + "/" + manifest->shards[0].path;

  EXPECT_FALSE(PagedShardClient::Open(shard_path, {0, 1}).ok());
  EXPECT_FALSE(PagedShardClient::Open(shard_path, {0, 2, 1, 3}).ok());
  EXPECT_TRUE(PagedShardClient::Open(shard_path, {0, 1, 2, 3}).ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- Manifest format

TEST(PagedManifestTest, FormatTagsRoundTrip) {
  ShardManifest manifest;
  manifest.policy = ShardPartitionPolicy::kRoundRobin;
  manifest.config = MakeIndexConfig();
  manifest.total_candidates = 3;
  manifest.shards.push_back(
      ShardManifestEntry{"a.jmix", 2, 7, {0, 2}});
  manifest.shards.push_back(
      ShardManifestEntry{"b.jmps", 1, 9, {1}});
  manifest.shards[1].format = ShardFileFormat::kPaged;

  const std::string mixed = SerializeManifest(manifest);
  auto parsed = DeserializeManifest(mixed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->shards[0].format, ShardFileFormat::kWholeFile);
  EXPECT_EQ(parsed->shards[1].format, ShardFileFormat::kPaged);
  EXPECT_EQ(SerializeManifest(*parsed), mixed);

  EXPECT_STREQ(ShardFileFormatToString(ShardFileFormat::kPaged), "paged");
  EXPECT_STREQ(ShardFileExtension(ShardFileFormat::kPaged), ".jmps");
  EXPECT_STREQ(ShardFileExtension(ShardFileFormat::kWholeFile), ".jmix");
  EXPECT_TRUE(ParseShardFileFormat("paged").ok());
  EXPECT_TRUE(ParseShardFileFormat("whole").ok());
  EXPECT_FALSE(ParseShardFileFormat("sideways").ok());
}

// ------------------------------------------------------- Paged RPC serving

TEST(PagedShardServerTest, ServesPagedShardOverRpcBitIdentically) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("server");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = 256;
  auto manifest_path = BuildShards(index, 2, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<ShardEndpoint>> endpoints;
  for (size_t s = 0; s < 2; ++s) {
    ShardServerOptions options;
    options.num_workers = 2;
    options.pool_pages = 2;
    options.require_paged = true;
    auto server = ShardServer::Create(*manifest_path, s, options);
    ASSERT_TRUE(server.ok()) << server.status();
    // The operator's receipts: the server knows it is paged, and open
    // really read only header + directory.
    EXPECT_TRUE((*server)->serving_paged());
    EXPECT_EQ((*server)->pool_capacity(), 2u);
    const storage::PagedOpenStats open_stats = (*server)->paged_open_stats();
    EXPECT_LT(open_stats.startup_bytes_read, open_stats.file_size);
    ASSERT_TRUE((*server)->Start().ok());
    endpoints.push_back({ShardEndpoint{"127.0.0.1", (*server)->port()}});
    servers.push_back(std::move(*server));
  }

  ReplicaRouterOptions remote_options;
  remote_options.rpc.connect_timeout_ms = 500;
  remote_options.rpc.io_timeout_ms = 10000;
  auto router = ShardedSketchIndex::Load(
      *manifest_path, ReplicaShardClient::Factory(endpoints, remote_options));
  ASSERT_TRUE(router.ok()) << router.status();
  auto unsharded = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, 1);
  ASSERT_TRUE(unsharded.ok());
  auto via_rpc = TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 10, 1);
  ASSERT_TRUE(via_rpc.ok()) << via_rpc.status();
  ExpectBitIdentical(*unsharded, *via_rpc);

  for (auto& server : servers) server->Stop();
  std::filesystem::remove_all(dir);
}

TEST(PagedShardServerTest, RequirePagedRejectsWholeFileShards) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("require");
  auto manifest_path =
      BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok());
  ShardServerOptions options;
  options.require_paged = true;
  auto server = ShardServer::Create(*manifest_path, 0, options);
  ASSERT_FALSE(server.ok());
  EXPECT_NE(server.status().message().find("--format paged"),
            std::string::npos)
      << server.status();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace joinmi
