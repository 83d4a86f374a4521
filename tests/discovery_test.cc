// Unit tests for src/discovery: repository extraction, sketch index +
// top-k discovery queries, ranking metrics, and the open-data simulator.

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/discovery/opendata_sim.h"
#include "src/discovery/ranking.h"
#include "src/discovery/repository.h"
#include "src/discovery/sketch_index.h"
#include "src/join/left_join.h"

namespace joinmi {
namespace {

// -------------------------------------------------------------- Repository

TEST(RepositoryTest, AddAndLookup) {
  TableRepository repo;
  auto t = *Table::FromColumns({{"k", Column::MakeString({"a"})}});
  ASSERT_TRUE(repo.AddTable("t1", t).ok());
  EXPECT_TRUE(repo.AddTable("t1", t).IsAlreadyExists());
  EXPECT_FALSE(repo.AddTable("t2", nullptr).ok());
  EXPECT_TRUE(repo.GetTable("t1").ok());
  EXPECT_FALSE(repo.GetTable("nope").ok());
  EXPECT_EQ(repo.num_tables(), 1u);
  EXPECT_EQ(repo.table_names(), std::vector<std::string>{"t1"});
}

TEST(RepositoryTest, ExtractColumnPairsFollowsPaperRules) {
  // Key must be a string attribute; value may be string or numeric.
  TableRepository repo;
  auto t = *Table::FromColumns({
      {"id", Column::MakeString({"a"})},
      {"city", Column::MakeString({"x"})},
      {"pop", Column::MakeInt64({1})},
      {"rate", Column::MakeDouble({0.5})},
  });
  ASSERT_TRUE(repo.AddTable("t", t).ok());
  const auto pairs = repo.ExtractColumnPairs();
  // Keys: id, city (2 string attrs). Values: the other 3 columns each.
  EXPECT_EQ(pairs.size(), 6u);
  for (const auto& p : pairs) {
    EXPECT_TRUE(p.key_column == "id" || p.key_column == "city");
    EXPECT_NE(p.key_column, p.value_column);
  }
}

TEST(RepositoryTest, NoStringKeysMeansNoPairs) {
  TableRepository repo;
  auto t = *Table::FromColumns({{"a", Column::MakeInt64({1})},
                                {"b", Column::MakeDouble({2.0})}});
  ASSERT_TRUE(repo.AddTable("t", t).ok());
  EXPECT_TRUE(repo.ExtractColumnPairs().empty());
}

// ----------------------------------------------------------------- Ranking

TEST(RankingTest, CompareEstimatesPerfectAgreement) {
  const std::vector<double> mi = {0.1, 0.5, 0.9, 0.3};
  auto cmp = *CompareEstimates(mi, mi);
  EXPECT_EQ(cmp.count, 4u);
  EXPECT_EQ(cmp.mse, 0.0);
  EXPECT_NEAR(cmp.spearman, 1.0, 1e-12);
  EXPECT_NEAR(cmp.pearson, 1.0, 1e-12);
}

TEST(RankingTest, CompareEstimatesDetectsDisagreement) {
  const std::vector<double> full = {0.1, 0.5, 0.9};
  const std::vector<double> reversed = {0.9, 0.5, 0.1};
  auto cmp = *CompareEstimates(full, reversed);
  EXPECT_NEAR(cmp.spearman, -1.0, 1e-12);
  EXPECT_GT(cmp.mse, 0.0);
}

TEST(RankingTest, TopKIndicesAndOverlap) {
  const std::vector<double> ref = {0.9, 0.1, 0.8, 0.2, 0.7};
  EXPECT_EQ(TopKIndices(ref, 3), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(TopKIndices(ref, 99).size(), 5u);
  // Estimate agrees on 2 of top-3.
  const std::vector<double> est = {0.9, 0.85, 0.8, 0.2, 0.1};
  EXPECT_NEAR(*TopKOverlap(ref, est, 3), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(*TopKOverlap(ref, ref, 3), 1.0, 1e-12);
  EXPECT_FALSE(TopKOverlap(ref, est, 0).ok());
  EXPECT_FALSE(TopKOverlap({0.1}, {0.1, 0.2}, 1).ok());
}

// ---------------------------------------------------------- Sketch index --

TEST(SketchIndexTest, IndexAndQueryRanksPlantedSignal) {
  // Candidate "good" is a deterministic function of the target; candidate
  // "noise" is independent. The index must rank "good" first.
  // String target + string candidates -> the MLE path on both sides (a
  // numeric target against string candidates would force DC-KSG onto data
  // with massive ties, which is exactly the misuse the paper warns about).
  Rng rng(41);
  std::vector<std::string> keys;
  std::vector<std::string> targets;
  for (int i = 0; i < 600; ++i) {
    const int k = static_cast<int>(rng.NextBounded(150));
    keys.push_back("k" + std::to_string(k));
    targets.push_back("t" + std::to_string(k % 5));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeString(targets)}});
  std::vector<std::string> cand_keys;
  std::vector<std::string> good_values, noise_values;
  for (int k = 0; k < 150; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    good_values.push_back("g" + std::to_string(k % 5));
    noise_values.push_back("n" + std::to_string(k % 7));
  }
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(cand_keys)},
       {"good", Column::MakeString(good_values)},
       {"noise", Column::MakeString(noise_values)}});

  TableRepository repo;
  ASSERT_TRUE(repo.AddTable("cand", cand).ok());

  JoinMIConfig config;
  config.sketch_capacity = 256;
  config.aggregation = AggKind::kMode;
  config.min_join_size = 10;
  SketchIndex index(config);
  auto indexed = index.IndexRepository(repo);
  ASSERT_TRUE(indexed.ok());
  // Pairs: key=K -> values {good, noise}; key=good -> {K, noise}; etc.
  EXPECT_GE(*indexed, 2u);

  auto query = *JoinMIQuery::Create(*train, "K", "Y", config);
  auto hits = index.SearchQuery(query, 10, 0, ShardQueryMode::kStrict)->hits;
  ASSERT_GE(hits.size(), 2u);
  // Find positions of the two candidates keyed on K.
  int good_pos = -1, noise_pos = -1;
  for (size_t i = 0; i < hits.size(); ++i) {
    const ColumnPairRef& ref = hits[i].candidate;
    if (ref.key_column == "K" && ref.value_column == "good") {
      good_pos = static_cast<int>(i);
    }
    if (ref.key_column == "K" && ref.value_column == "noise") {
      noise_pos = static_cast<int>(i);
    }
  }
  ASSERT_GE(good_pos, 0);
  ASSERT_GE(noise_pos, 0);
  EXPECT_LT(good_pos, noise_pos);  // planted signal ranked above noise
  EXPECT_GT(hits[static_cast<size_t>(good_pos)].estimate.mi,
            hits[static_cast<size_t>(noise_pos)].estimate.mi);
}

TEST(SketchIndexTest, TopKTruncates) {
  JoinMIConfig config;
  config.sketch_capacity = 64;
  config.aggregation = AggKind::kFirst;
  SketchIndex index(config);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b", "c", "d", "e", "f", "g", "h"})},
       {"V1", Column::MakeInt64({1, 2, 3, 4, 5, 6, 7, 8})},
       {"V2", Column::MakeInt64({8, 7, 6, 5, 4, 3, 2, 1})}});
  ASSERT_TRUE(index.AddCandidate(*cand, {"c", "K", "V1"}).ok());
  ASSERT_TRUE(index.AddCandidate(*cand, {"c", "K", "V2"}).ok());
  auto train = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b", "c", "d", "e", "f", "g", "h"})},
       {"Y", Column::MakeInt64({1, 1, 2, 2, 3, 3, 4, 4})}});
  JoinMIConfig query_config = config;
  query_config.min_join_size = 1;
  auto query = *JoinMIQuery::Create(*train, "K", "Y", query_config);
  auto hits = index.SearchQuery(query, 1, 0, ShardQueryMode::kStrict);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->hits.size(), 1u);
}

// ------------------------------------------------------- Open-data sim ----

TEST(OpenDataSimTest, GeneratesRequestedShape) {
  OpenDataParams params;
  params.num_pairs = 8;
  params.left_rows = 500;
  params.right_rows = 300;
  params.left_key_domain = 200;
  params.right_key_domain = 150;
  params.seed = 5;
  auto pairs = GenerateOpenDataCollection(params);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 8u);
  for (const auto& pair : *pairs) {
    EXPECT_GE(pair.train->num_rows(), 250u);
    EXPECT_LE(pair.train->num_rows(), 750u);
    EXPECT_TRUE(pair.train->schema().HasField("K"));
    EXPECT_TRUE(pair.train->schema().HasField("Y"));
    EXPECT_TRUE(pair.cand->schema().HasField("K"));
    EXPECT_TRUE(pair.cand->schema().HasField("Z"));
    EXPECT_GE(pair.dependence, 0.0);
    EXPECT_LE(pair.dependence, 1.0);
    // Keys are strings as in the paper's extraction rule.
    EXPECT_EQ((*pair.train->GetColumn("K"))->type(), DataType::kString);
  }
}

TEST(OpenDataSimTest, DeterministicPerSeed) {
  OpenDataParams params;
  params.num_pairs = 3;
  params.left_rows = 200;
  params.right_rows = 100;
  params.left_key_domain = 80;
  params.right_key_domain = 60;
  params.seed = 9;
  auto a = *GenerateOpenDataCollection(params);
  auto b = *GenerateOpenDataCollection(params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].train->num_rows(), b[i].train->num_rows());
    EXPECT_EQ(a[i].dependence, b[i].dependence);
  }
}

TEST(OpenDataSimTest, KeysOverlapAcrossSides) {
  OpenDataParams params;
  params.num_pairs = 4;
  params.left_rows = 2000;
  params.right_rows = 1500;
  params.left_key_domain = 300;
  params.right_key_domain = 300;
  params.key_overlap = 0.8;
  params.seed = 11;
  auto pairs = *GenerateOpenDataCollection(params);
  for (const auto& pair : pairs) {
    auto join_size = *EquiJoinSize(*(*pair.train->GetColumn("K")),
                                   *(*pair.cand->GetColumn("K")));
    EXPECT_GT(join_size, 0u) << "no key overlap generated";
  }
}

TEST(OpenDataSimTest, DependenceDrivesFullJoinMI) {
  // Across the collection, pairs with high planted dependence should have
  // higher full-join MI than pairs with low dependence (rank correlation).
  OpenDataParams params;
  params.num_pairs = 24;
  params.left_rows = 1500;
  params.right_rows = 800;
  params.left_key_domain = 250;
  params.right_key_domain = 250;
  params.key_overlap = 0.9;
  params.p_string_value = 0.0;  // numeric-only for a single estimator
  params.seed = 13;
  auto pairs = *GenerateOpenDataCollection(params);
  std::vector<double> dependence, mi;
  for (const auto& pair : pairs) {
    JoinMIConfig config;
    config.aggregation = AggKind::kAvg;
    config.estimator = MIEstimatorKind::kMixedKSG;
    auto estimate = FullJoinMI(*pair.train, *pair.cand,
                               {"K", "Y", "K", "Z"}, config);
    if (!estimate.ok()) continue;
    dependence.push_back(pair.dependence);
    mi.push_back(estimate->mi);
  }
  ASSERT_GE(dependence.size(), 15u);
  EXPECT_GT(*SpearmanCorrelation(dependence, mi), 0.6);
}

TEST(OpenDataSimTest, PresetsMatchReportedDomainScales) {
  const OpenDataParams wbf = WBFLikeParams();
  EXPECT_EQ(wbf.left_key_domain, 3100u);
  EXPECT_EQ(wbf.right_key_domain, 3500u);
  const OpenDataParams nyc = NYCLikeParams();
  EXPECT_EQ(nyc.left_key_domain, 11200u);
  EXPECT_EQ(nyc.right_key_domain, 1000u);
}

TEST(OpenDataSimTest, RejectsBadParams) {
  OpenDataParams params;
  params.num_pairs = 0;
  EXPECT_FALSE(GenerateOpenDataCollection(params).ok());
  params = OpenDataParams{};
  params.key_overlap = 1.5;
  EXPECT_FALSE(GenerateOpenDataCollection(params).ok());
  params = OpenDataParams{};
  params.latent_buckets = 0;
  EXPECT_FALSE(GenerateOpenDataCollection(params).ok());
}

}  // namespace
}  // namespace joinmi
