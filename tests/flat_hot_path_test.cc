// Tests for the discovery hot path: the scoring kernel's key-order
// contract as every entry point enforces it (unsorted or duplicated
// candidates and unsorted train sketches fail with a structured error
// instead of a silently wrong join), and bit-identity of every path that
// scores through the kernel — SketchIndex::EvaluateAll,
// PagedShardClient::Search and JoinMIQuery::Estimate — against the
// JoinSketches reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

// ----------------------------------------------- kernel key-order contract

Sketch MakeSketch(SketchSide side,
                  std::vector<std::pair<uint64_t, int64_t>> entries) {
  Sketch sketch;
  sketch.side = side;
  sketch.capacity = entries.size();
  for (const auto& [key, value] : entries) {
    SketchEntry entry;
    entry.key_hash = key;
    entry.value = Value(value);
    sketch.entries.push_back(std::move(entry));
  }
  return sketch;
}

Sketch MakeCandidateSketch(std::vector<std::pair<uint64_t, int64_t>> entries) {
  return MakeSketch(SketchSide::kCandidate, std::move(entries));
}

Sketch MakeTrainSketch(std::vector<std::pair<uint64_t, int64_t>> entries) {
  return MakeSketch(SketchSide::kTrain, std::move(entries));
}

JoinMIConfig ContractConfig() {
  JoinMIConfig config;
  config.min_join_size = 1;
  config.estimator = MIEstimatorKind::kMLE;
  return config;
}

// The reference outcome for one candidate: JoinSketches + the shared
// scoring tail, exactly as EstimateSketchMI would compute it.
Result<SketchMIResult> ReferenceScore(const JoinMIQuery& query,
                                      const Sketch& candidate) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined,
                          JoinSketches(query.train_sketch(), candidate));
  const JoinMIConfig& config = query.config();
  return ScoreSketchJoinSample(joined.sample, joined.join_size,
                               config.estimator, config.mi_options,
                               config.min_join_size);
}

// Six train entries over keys 1..6 and a candidate holding all six keys in
// descending order: JoinSketches joins 6 pairs, a merge that trusted the
// order would find 1. Every kernel entry point must refuse the candidate.
Sketch SixKeyTrain() {
  return MakeTrainSketch({{1, 1}, {2, 2}, {3, 3}, {4, 1}, {5, 2}, {6, 3}});
}
Sketch SixKeyDescendingCandidate() {
  return MakeCandidateSketch(
      {{6, 3}, {5, 2}, {4, 1}, {3, 3}, {2, 2}, {1, 1}});
}

TEST(ProbeContractTest, UnsortedCandidateEntriesFailStructurally) {
  auto query = JoinMIQuery::FromTrainSketch(SixKeyTrain(), ContractConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  Sketch descending = SixKeyDescendingCandidate();
  auto reference = JoinSketches(query->train_sketch(), descending);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->join_size, 6u);
  auto estimate = query->Estimate(descending);
  ASSERT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsInvalidArgument());
  EXPECT_NE(estimate.status().message().find("not sorted"), std::string::npos)
      << estimate.status().ToString();
}

TEST(ProbeContractTest, DuplicateCandidateKeysStillRejected) {
  auto query = JoinMIQuery::FromTrainSketch(
      MakeTrainSketch({{1, 1}, {2, 2}}), ContractConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  auto estimate = query->Estimate(MakeCandidateSketch({{2, 20}, {2, 21}}));
  ASSERT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsInvalidArgument());
  EXPECT_NE(estimate.status().message().find("duplicate"), std::string::npos);
  // Duplicates that match no train entry are rejected too — parity with
  // JoinSketches, which refuses them the same way.
  const Sketch unmatched_dupes = MakeCandidateSketch({{9, 1}, {9, 2}});
  EXPECT_TRUE(query->Estimate(unmatched_dupes).status().IsInvalidArgument());
  EXPECT_TRUE(JoinSketches(query->train_sketch(), unmatched_dupes)
                  .status()
                  .IsInvalidArgument());
}

TEST(ProbeContractTest, EmptyCandidatesScoreLikeTheReference) {
  // An empty candidate is a zero-length slice of the index: probing it,
  // between two candidates and as the last one, must neither read a
  // neighbour's keys nor fail, and must match the reference outcome.
  auto query = JoinMIQuery::FromTrainSketch(SixKeyTrain(), ContractConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  SketchIndex index(ContractConfig());
  const std::vector<Sketch> candidates = {
      MakeCandidateSketch({{1, 1}, {2, 2}, {3, 3}}), MakeCandidateSketch({}),
      MakeCandidateSketch({{4, 1}, {6, 3}}), MakeCandidateSketch({})};
  for (size_t c = 0; c < candidates.size(); ++c) {
    ASSERT_TRUE(
        index.AddSketch({"t" + std::to_string(c), "K", "V"}, candidates[c])
            .ok());
  }
  auto evaluation = index.EvaluateAll(*query, 1);
  ASSERT_TRUE(evaluation.ok()) << evaluation.status();
  for (size_t c = 0; c < candidates.size(); ++c) {
    auto reference = ReferenceScore(*query, candidates[c]);
    if (!reference.ok()) {
      EXPECT_TRUE(reference.status().IsOutOfRange()) << c;
      EXPECT_FALSE(evaluation->estimates[c].has_value()) << c;
      continue;
    }
    ASSERT_TRUE(evaluation->estimates[c].has_value()) << c;
    EXPECT_EQ(evaluation->estimates[c]->mi, reference->mi) << c;
    EXPECT_EQ(evaluation->estimates[c]->sample_size, reference->join_size)
        << c;
  }
  EXPECT_EQ(evaluation->num_evaluated, 2u);
  EXPECT_EQ(evaluation->num_skipped, 2u);
  EXPECT_EQ(evaluation->num_errors, 0u);
}

TEST(ProbeContractTest, EstimateChecksSidesAndSeedsBeforeMerging) {
  auto query = JoinMIQuery::FromTrainSketch(
      MakeTrainSketch({{5, 9}}), ContractConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  Sketch train_side = MakeTrainSketch({{5, 1}});
  EXPECT_TRUE(query->Estimate(train_side).status().IsInvalidArgument());
  Sketch other_seed = MakeCandidateSketch({{5, 1}});
  other_seed.hash_seed = 3;
  EXPECT_TRUE(query->Estimate(other_seed).status().IsInvalidArgument());
  other_seed.hash_seed = 0;
  auto joined = query->Estimate(other_seed);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->sample_size, 1u);
}

TEST(ProbeContractTest, SortedCandidateScoresIdenticallyToJoinSketches) {
  Sketch train = MakeTrainSketch({{1, 5}, {1, 6}, {4, 7}, {9, 8}});
  Sketch candidate = MakeCandidateSketch({{1, 100}, {9, 900}, {12, 1200}});
  auto query = JoinMIQuery::FromTrainSketch(train, ContractConfig());
  ASSERT_TRUE(query.ok()) << query.status();
  auto joined = JoinSketches(train, candidate);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->join_size, 3u);
  auto reference = ScoreSketchJoinSample(joined->sample, joined->join_size,
                                         MIEstimatorKind::kMLE, {}, 1);
  ASSERT_TRUE(reference.ok());
  auto estimate = query->Estimate(candidate);
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_EQ(estimate->mi, reference->mi);
  EXPECT_EQ(estimate->sample_size, 3u);
}

TEST(ProbeContractTest, IndexRejectsDescendingCandidateWithoutMutation) {
  SketchIndex index(ContractConfig());
  ASSERT_TRUE(
      index.AddSketch({"ok", "K", "V"}, MakeCandidateSketch({{1, 1}, {3, 3}}))
          .ok());
  Status added =
      index.AddSketch({"bad", "K", "V"}, SixKeyDescendingCandidate());
  EXPECT_TRUE(added.IsInvalidArgument()) << added.ToString();
  EXPECT_NE(added.message().find("not sorted"), std::string::npos);
  EXPECT_EQ(index.size(), 1u);
  // The rejected keys must not linger in the key column: a candidate added
  // afterwards still scores against its own keys.
  ASSERT_TRUE(index.AddSketch({"next", "K", "V"},
                              MakeCandidateSketch({{1, 1}, {2, 2}, {3, 3}}))
                  .ok());
  auto query = JoinMIQuery::FromTrainSketch(SixKeyTrain(), ContractConfig());
  ASSERT_TRUE(query.ok());
  auto evaluation = index.EvaluateAll(*query, 1);
  ASSERT_TRUE(evaluation.ok());
  ASSERT_TRUE(evaluation->estimates[1].has_value());
  EXPECT_EQ(evaluation->estimates[1]->sample_size, 3u);
}

TEST(ProbeContractTest, LoaderNamesTheDescendingCandidate) {
  // A JMIX file whose second candidate's keys descend: the loader must
  // reject it and say which candidate. SerializeIndex cannot write one (the
  // index refuses the sketch), so splice its bytes over a valid sketch of
  // the same size.
  SketchIndex index(ContractConfig());
  ASSERT_TRUE(index.AddSketch({"a", "K", "V"}, MakeCandidateSketch({{1, 1}}))
                  .ok());
  Sketch ascending =
      MakeCandidateSketch({{1, 1}, {2, 2}, {3, 3}, {4, 1}, {5, 2}, {6, 3}});
  ASSERT_TRUE(index.AddSketch({"b", "K", "V"}, ascending).ok());
  std::string bytes = SerializeIndex(index);
  const std::string good = SerializeSketch(ascending);
  const std::string bad = SerializeSketch(SixKeyDescendingCandidate());
  ASSERT_EQ(good.size(), bad.size());
  const size_t at = bytes.find(good);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, good.size(), bad);
  auto loaded = DeserializeIndex(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("candidate 1 of 2"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ProbeContractTest, FromTrainSketchRejectsDescendingTrainSketch) {
  // The RPC upload path: a train sketch arriving over the wire with keys
  // out of order must be refused, not merged into a wrong join.
  auto query = JoinMIQuery::FromTrainSketch(
      MakeTrainSketch({{6, 1}, {4, 2}, {1, 3}}), ContractConfig());
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsInvalidArgument());
  EXPECT_NE(query.status().message().find("not sorted"), std::string::npos);
}

// ------------------------------------- every path against the reference

std::shared_ptr<Table> MakeTwoColumnTable(const std::string& key_name,
                                          std::vector<std::string> keys,
                                          const std::string& value_name,
                                          std::vector<int64_t> values) {
  return *Table::FromColumns(
      {{key_name, Column::MakeString(std::move(keys))},
       {value_name, Column::MakeInt64(std::move(values))}});
}

// Twelve candidates of graded relevance and shrinking key overlap, so the
// index mixes real hits, noise, and below-cutoff candidates.
TableRepository MakeGradedRepository(std::shared_ptr<Table>* base) {
  Rng rng(5150);
  const size_t num_keys = 200;
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("k" + std::to_string(i % 150));
    targets.push_back(static_cast<int64_t>(i % 9));
  }
  *base = MakeTwoColumnTable("K", keys, "Y", targets);
  TableRepository repository;
  for (size_t t = 0; t < 12; ++t) {
    std::vector<std::string> cand_keys;
    std::vector<int64_t> cand_values;
    for (size_t i = t * 12; i < num_keys; ++i) {
      cand_keys.push_back("k" + std::to_string(i));
      cand_values.push_back(t % 3 == 0
                                ? static_cast<int64_t>(i % 9)
                                : static_cast<int64_t>(rng.NextBounded(9)));
    }
    repository
        .AddTable("t" + std::to_string(t),
                  MakeTwoColumnTable("K", std::move(cand_keys), "V",
                                     std::move(cand_values)))
        .Abort();
  }
  return repository;
}

TEST(BatchedEvaluateAllTest, MatchesJoinSketchesReferenceBitExactly) {
  std::shared_ptr<Table> base;
  TableRepository repository = MakeGradedRepository(&base);
  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(repository).ok());
  ASSERT_EQ(index.size(), 12u);

  auto query = *JoinMIQuery::Create(*base, "K", "Y", config);
  for (size_t num_threads : {1u, 2u, 4u}) {
    auto evaluation = index.EvaluateAll(query, num_threads);
    ASSERT_TRUE(evaluation.ok());
    ASSERT_EQ(evaluation->estimates.size(), index.size());
    size_t evaluated = 0;
    size_t skipped = 0;
    for (size_t c = 0; c < index.size(); ++c) {
      // Estimates must agree bit-for-bit, not approximately.
      auto reference = ReferenceScore(query, index.candidates()[c].sketch());
      if (reference.ok()) {
        ++evaluated;
        ASSERT_TRUE(evaluation->estimates[c].has_value()) << c;
        EXPECT_EQ(evaluation->estimates[c]->mi, reference->mi) << c;
        EXPECT_EQ(evaluation->estimates[c]->sample_size,
                  reference->join_size)
            << c;
        EXPECT_EQ(evaluation->estimates[c]->estimator, reference->estimator)
            << c;
        EXPECT_TRUE(evaluation->estimates[c]->sketched) << c;
      } else {
        ASSERT_TRUE(reference.status().IsOutOfRange()) << c;
        ++skipped;
        EXPECT_FALSE(evaluation->estimates[c].has_value()) << c;
      }
    }
    EXPECT_GT(evaluated, 0u);
    EXPECT_GT(skipped, 0u);
    EXPECT_EQ(evaluation->num_evaluated, evaluated);
    EXPECT_EQ(evaluation->num_skipped, skipped);
    EXPECT_EQ(evaluation->num_errors, 0u);
  }
}

class KernelPathsTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(KernelPathsTest, IndexPagedAndEstimateMatchReferenceBitExactly) {
  std::shared_ptr<Table> base;
  TableRepository repository = MakeGradedRepository(&base);
  JoinMIConfig config;
  config.sketch_method = GetParam();
  config.sketch_capacity = 96;
  config.min_join_size = 12;
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(repository).ok());
  ASSERT_EQ(index.size(), 12u);
  auto query = *JoinMIQuery::Create(*base, "K", "Y", config);

  const std::string dir = testing::TempDir() + "/joinmi_kernel_paths_" +
                          SketchMethodToString(GetParam());
  std::filesystem::remove_all(dir);
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = 256;
  auto manifest_path = BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin,
                                   dir, paged_build);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  PagedShardClient::Options one_page;
  one_page.pool_pages = 1;
  auto paged = PagedShardClient::Open(dir + "/" + manifest->shards[0].path,
                                      manifest->shards[0].global_indices,
                                      one_page);
  ASSERT_TRUE(paged.ok()) << paged.status();

  auto evaluation = index.EvaluateAll(query, 4);
  ASSERT_TRUE(evaluation.ok());
  auto shard = (*paged)->Search(query, index.size(), 4);
  ASSERT_TRUE(shard.ok()) << shard.status();
  std::map<uint64_t, JoinMIEstimate> paged_hits;
  for (const SearchHit& hit : shard->hits) {
    paged_hits.emplace(hit.global_index, hit.estimate);
  }
  size_t evaluated = 0;
  for (size_t c = 0; c < index.size(); ++c) {
    const Sketch& candidate = index.candidates()[c].sketch();
    auto reference = ReferenceScore(query, candidate);
    auto estimate = query.Estimate(candidate);
    const auto paged_hit = paged_hits.find(c);
    if (!reference.ok()) {
      ASSERT_TRUE(reference.status().IsOutOfRange()) << c;
      EXPECT_TRUE(estimate.status().IsOutOfRange()) << c;
      EXPECT_FALSE(evaluation->estimates[c].has_value()) << c;
      EXPECT_EQ(paged_hit, paged_hits.end()) << c;
      continue;
    }
    ++evaluated;
    ASSERT_TRUE(estimate.ok()) << c << ": " << estimate.status();
    ASSERT_TRUE(evaluation->estimates[c].has_value()) << c;
    ASSERT_NE(paged_hit, paged_hits.end()) << c;
    for (const JoinMIEstimate& got :
         {*estimate, *evaluation->estimates[c], paged_hit->second}) {
      EXPECT_EQ(got.mi, reference->mi) << c;
      EXPECT_EQ(got.sample_size, reference->join_size) << c;
      EXPECT_EQ(got.estimator, reference->estimator) << c;
    }
  }
  EXPECT_GT(evaluated, 0u);
  EXPECT_EQ(evaluation->num_evaluated, evaluated);
  EXPECT_EQ(shard->num_evaluated, evaluated);
  EXPECT_EQ(shard->num_skipped, evaluation->num_skipped);
  EXPECT_EQ(shard->num_errors, 0u);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, KernelPathsTest,
    testing::Values(SketchMethod::kTupsk, SketchMethod::kLv2sk,
                    SketchMethod::kPrisk, SketchMethod::kIndsk,
                    SketchMethod::kCsk),
    [](const testing::TestParamInfo<SketchMethod>& info) {
      return SketchMethodToString(info.param);
    });

}  // namespace
}  // namespace joinmi
