// Tests for the top-k discovery search over an index built by
// SketchIndex::IndexRepository: ranking correctness on a synthetic
// repository, deterministic results across thread counts (bit-identical to
// the serial ScanReference), the stable tie-break, and the accounting of
// skipped candidates and of pairs the index could not sketch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/search.h"
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

/// Fixed-seed synthetic discovery universe: a base table whose target is a
/// deterministic function of the key, plus candidates of graded relevance.
struct SyntheticUniverse {
  std::shared_ptr<Table> base;
  TableRepository repository;
};

SyntheticUniverse MakeUniverse() {
  SyntheticUniverse universe;
  Rng rng(4242);
  const size_t num_keys = 160;
  std::vector<std::string> base_keys;
  std::vector<int64_t> base_targets;
  for (size_t i = 0; i < num_keys; ++i) {
    base_keys.push_back("key" + std::to_string(i));
    base_targets.push_back(static_cast<int64_t>(i % 7));
  }
  universe.base = MakeTwoColumnTable("K", base_keys, "Y", base_targets);

  // "exact": value == target, maximal MI.
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    values.push_back(static_cast<int64_t>(i % 7));
  }
  universe.repository
      .AddTable("exact", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();

  // "coarse": a lossy function of the target, intermediate MI.
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>((i % 7) / 3));
  }
  universe.repository
      .AddTable("coarse", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();

  // "noise": independent of the target.
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(7)));
  }
  universe.repository
      .AddTable("noise", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();

  // "disjoint": no key overlap with the base table; its estimate fails the
  // min-join-size guard and the candidate is skipped.
  keys.clear();
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("other" + std::to_string(i));
    values.push_back(static_cast<int64_t>(i));
  }
  universe.repository
      .AddTable("disjoint", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  return universe;
}

JoinMIConfig MakeJoinConfig() {
  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  return config;
}

// Indexes every column pair of `repository` under MakeJoinConfig(), then
// searches the index with `num_threads`.
Result<TopKSearchResult> IndexAndSearch(const Table& base,
                                        const SearchSpec& spec,
                                        const TableRepository& repository,
                                        size_t k, size_t num_threads) {
  SketchIndex index(MakeJoinConfig());
  JOINMI_RETURN_NOT_OK(index.IndexRepository(repository).status());
  return TopKJoinMISearch(base, spec, index, k, num_threads);
}

TEST(TopKJoinMISearchTest, RanksCandidatesByRelevance) {
  SyntheticUniverse universe = MakeUniverse();
  auto result = IndexAndSearch(*universe.base, {"K", "Y"},
                               universe.repository, 10, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  // 4 tables x 1 string-key/int-value pair each.
  EXPECT_EQ(result->num_candidates, 4u);
  EXPECT_EQ(result->num_evaluated, 3u);
  EXPECT_EQ(result->num_skipped, 1u);
  EXPECT_EQ(result->num_errors, 0u);
  ASSERT_EQ(result->hits.size(), 3u);
  EXPECT_EQ(result->hits[0].candidate.table_name, "exact");
  EXPECT_EQ(result->hits[1].candidate.table_name, "coarse");
  EXPECT_EQ(result->hits[2].candidate.table_name, "noise");
  // Sorted descending.
  EXPECT_GE(result->hits[0].estimate.mi, result->hits[1].estimate.mi);
  EXPECT_GE(result->hits[1].estimate.mi, result->hits[2].estimate.mi);
  for (const SearchHit& hit : result->hits) {
    EXPECT_TRUE(hit.estimate.sketched);
    EXPECT_GE(hit.estimate.sample_size, 16u);
  }
}

TEST(TopKJoinMISearchTest, KTruncatesTheRanking) {
  SyntheticUniverse universe = MakeUniverse();
  auto result = IndexAndSearch(*universe.base, {"K", "Y"},
                               universe.repository, 1, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].candidate.table_name, "exact");
  // Accounting still covers the whole index.
  EXPECT_EQ(result->num_candidates, 4u);
  EXPECT_EQ(result->num_evaluated, 3u);
}

TEST(TopKJoinMISearchTest, RejectsZeroK) {
  SyntheticUniverse universe = MakeUniverse();
  auto result = IndexAndSearch(*universe.base, {"K", "Y"},
                               universe.repository, 0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TopKJoinMISearchTest, FailsOnMissingBaseColumns) {
  SyntheticUniverse universe = MakeUniverse();
  auto result = IndexAndSearch(*universe.base, {"nope", "Y"},
                               universe.repository, 3, 1);
  EXPECT_FALSE(result.ok());
}

TEST(TopKJoinMISearchTest, EmptyRepositoryYieldsEmptyResult) {
  SyntheticUniverse universe = MakeUniverse();
  TableRepository empty;
  auto result = IndexAndSearch(*universe.base, {"K", "Y"}, empty, 5, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->hits.empty());
  EXPECT_EQ(result->num_candidates, 0u);
}

// The determinism satellite: rankings must be byte-identical for any thread
// count, including hardware-default, and to the serial scan reference.
TEST(TopKJoinMISearchTest, ThreadCountDoesNotChangeTheRanking) {
  SyntheticUniverse universe = MakeUniverse();
  auto serial = ScanReference(*universe.base, {"K", "Y"},
                              universe.repository, 10, MakeJoinConfig());
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t num_threads : {1u, 2u, 4u, 8u, 0u}) {
    auto parallel = IndexAndSearch(*universe.base, {"K", "Y"},
                                   universe.repository, 10, num_threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel->num_candidates, serial->num_candidates);
    EXPECT_EQ(parallel->num_evaluated, serial->num_evaluated);
    EXPECT_EQ(parallel->num_skipped, serial->num_skipped);
    ASSERT_EQ(parallel->hits.size(), serial->hits.size()) << num_threads;
    for (size_t i = 0; i < serial->hits.size(); ++i) {
      EXPECT_EQ(parallel->hits[i].candidate.table_name,
                serial->hits[i].candidate.table_name);
      EXPECT_EQ(parallel->hits[i].candidate.key_column,
                serial->hits[i].candidate.key_column);
      EXPECT_EQ(parallel->hits[i].candidate.value_column,
                serial->hits[i].candidate.value_column);
      // Bit-exact, not approximately equal: the whole estimate pipeline is
      // seeded, so threads must not perturb any arithmetic.
      EXPECT_EQ(parallel->hits[i].estimate.mi, serial->hits[i].estimate.mi);
      EXPECT_EQ(parallel->hits[i].estimate.sample_size,
                serial->hits[i].estimate.sample_size);
      EXPECT_EQ(parallel->hits[i].estimate.estimator,
                serial->hits[i].estimate.estimator);
    }
  }
}

TEST(TopKJoinMISearchTest, CountsUnsketchablePairsApartFromSkips) {
  // "disjoint" has no key overlap — an expected skip (overlap too small).
  // "textual" is all-string, so both of its extracted pairs feed a string
  // value column to the default kAvg aggregation, which cannot sketch it:
  // IndexRepository leaves both pairs out, and the pair count minus its
  // return value says how many. Operators must be able to tell these
  // apart: skips are normal, unsketchable pairs mean the repository (or
  // config) is broken for those candidates.
  SyntheticUniverse universe = MakeUniverse();
  std::vector<std::string> keys;
  std::vector<std::string> words;
  for (size_t i = 0; i < 160; ++i) {
    keys.push_back("key" + std::to_string(i));
    words.push_back("w" + std::to_string(i % 3));
  }
  universe.repository
      .AddTable("textual",
                *Table::FromColumns({{"K", Column::MakeString(keys)},
                                     {"V", Column::MakeString(words)}}))
      .Abort();
  ASSERT_EQ(universe.repository.ExtractColumnPairs().size(), 6u);
  SketchIndex index(MakeJoinConfig());
  auto indexed = index.IndexRepository(universe.repository);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(*indexed, 4u);
  for (size_t num_threads : {1u, 4u}) {
    auto result =
        TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10, num_threads);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_candidates, 4u);
    EXPECT_EQ(result->num_evaluated, 3u);
    EXPECT_EQ(result->num_skipped, 1u);
    EXPECT_EQ(result->num_errors, 0u);
  }
}

TEST(TopKJoinMISearchTest, TiesBreakByEnumerationOrder) {
  // Two byte-identical candidate tables produce exactly equal MI; the hit
  // order must follow repository enumeration (lexicographic table name),
  // which is the order IndexRepository inserts in.
  const size_t num_keys = 120;
  std::vector<std::string> keys;
  std::vector<int64_t> targets, values;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 4));
    values.push_back(static_cast<int64_t>(i % 4));
  }
  auto base = MakeTwoColumnTable("K", keys, "Y", targets);
  TableRepository repository;
  repository.AddTable("twin_b", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  repository.AddTable("twin_a", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  for (size_t num_threads : {1u, 4u}) {
    auto result = IndexAndSearch(*base, {"K", "Y"}, repository, 2,
                                 num_threads);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->hits.size(), 2u);
    EXPECT_EQ(result->hits[0].estimate.mi, result->hits[1].estimate.mi);
    EXPECT_EQ(result->hits[0].candidate.table_name, "twin_a");
    EXPECT_EQ(result->hits[1].candidate.table_name, "twin_b");
  }
}

}  // namespace
}  // namespace joinmi
