// Tests for the persisted, parallel SketchIndex: query determinism across
// thread counts and duplicated candidates, the key postings against the
// per-candidate scoring kernel, the pool-sketched repository build against
// a serial one (byte for byte), the versioned on-disk format (byte-exact
// round trips, corruption handling), config enforcement, and rank
// agreement between index-backed and per-query-sketching search.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/discovery/search.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
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

/// Fixed universe: a base table whose target is a function of the key, and
/// a repository of candidates with graded relevance (as in search_test).
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
  universe.repository
      .AddTable("exact", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
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

/// The index's own ranking: (MI desc, insertion index asc).
std::vector<SearchHit> Rank(const SketchIndex& index, const JoinMIQuery& query,
                            size_t k, size_t num_threads) {
  auto result =
      index.SearchQuery(query, k, num_threads, ShardQueryMode::kStrict);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->hits : std::vector<SearchHit>{};
}

void ExpectSameHits(const std::vector<SearchHit>& a,
                    const std::vector<SearchHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].candidate.table_name, b[i].candidate.table_name) << i;
    EXPECT_EQ(a[i].candidate.key_column, b[i].candidate.key_column) << i;
    EXPECT_EQ(a[i].candidate.value_column, b[i].candidate.value_column) << i;
    // Bit-exact: the estimate pipeline is fully seeded.
    EXPECT_EQ(a[i].estimate.mi, b[i].estimate.mi) << i;
    EXPECT_EQ(a[i].estimate.sample_size, b[i].estimate.sample_size) << i;
    EXPECT_EQ(a[i].estimate.estimator, b[i].estimate.estimator) << i;
  }
}

TEST(SketchIndexQueryTest, ThreadCountDoesNotChangeTheRanking) {
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 3u);
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", config);
  auto serial = Rank(index, query, 10, /*num_threads=*/1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial[0].candidate.table_name, "exact");
  for (size_t num_threads : {2u, 4u, 8u, 0u}) {
    ExpectSameHits(serial, Rank(index, query, 10, num_threads));
  }
}

TEST(SketchIndexQueryTest, DuplicatedCandidatesKeepInsertionOrder) {
  // Exact duplicates tie on MI and join size, so only the insertion index
  // separates them — the ranking must be reproducible for any thread
  // count regardless.
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  auto exact = *universe.repository.GetTable("exact");
  const ColumnPairRef ref{"exact", "K", "V"};
  for (int copy = 0; copy < 4; ++copy) {
    ASSERT_TRUE(index.AddCandidate(*exact, ref).ok());
  }
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", config);
  auto serial = Rank(index, query, 10, 1);
  ASSERT_EQ(serial.size(), 4u);
  for (size_t i = 1; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].estimate.mi, serial[0].estimate.mi);
    EXPECT_EQ(serial[i].estimate.sample_size, serial[0].estimate.sample_size);
  }
  for (size_t num_threads : {2u, 4u, 0u}) {
    ExpectSameHits(serial, Rank(index, query, 10, num_threads));
  }
}

TEST(SketchIndexQueryTest, EvaluateAllSeparatesSkipsFromErrors) {
  // "disjoint" fails the min-join-size guard — an expected skip.
  Universe universe = MakeUniverse();
  std::vector<std::string> other_keys;
  std::vector<int64_t> other_values;
  for (size_t i = 0; i < 160; ++i) {
    other_keys.push_back("other" + std::to_string(i));
    other_values.push_back(static_cast<int64_t>(i));
  }
  ASSERT_TRUE(universe.repository
                  .AddTable("disjoint", MakeTwoColumnTable("K", other_keys,
                                                           "V", other_values))
                  .ok());
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", config);
  auto evaluation = *index.EvaluateAll(query, 1);
  EXPECT_EQ(evaluation.num_evaluated, 3u);
  EXPECT_EQ(evaluation.num_skipped, 1u);
  EXPECT_EQ(evaluation.num_errors, 0u);
  ASSERT_EQ(evaluation.estimates.size(), 4u);

  // A string-valued candidate joins fine but cannot feed a forced KSG
  // estimator — a hard error, counted apart from the overlap skips.
  JoinMIConfig ksg_config = MakeIndexConfig();
  ksg_config.estimator = MIEstimatorKind::kKSG;
  ksg_config.aggregation = AggKind::kFirst;
  std::vector<std::string> keys, svals;
  for (size_t i = 0; i < 160; ++i) {
    keys.push_back("key" + std::to_string(i));
    svals.push_back("s" + std::to_string(i % 5));
  }
  auto textual = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"V", Column::MakeString(svals)}});
  SketchIndex ksg_index(ksg_config);
  ASSERT_TRUE(ksg_index.AddCandidate(*textual, {"textual", "K", "V"}).ok());
  auto ksg_query = *JoinMIQuery::Create(*universe.base, "K", "Y", ksg_config);
  auto ksg_eval = *ksg_index.EvaluateAll(ksg_query, 1);
  EXPECT_EQ(ksg_eval.num_evaluated, 0u);
  EXPECT_EQ(ksg_eval.num_skipped, 0u);
  EXPECT_EQ(ksg_eval.num_errors, 1u);
}

TEST(SketchIndexQueryTest, NonFiniteCandidateNumbersCountAsErrors) {
  // Candidates holding one +inf, -inf or NaN among finite doubles, with
  // joins of 40 pairs and of 400 (past every KSG-family brute-force
  // cutoff): each fails its KSG-family estimate and counts under
  // num_errors, while its finite twin scores. MixedKSG and DC-KSG are the
  // auto choices for a numeric and a string target; KSG is forced.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t num_keys = 400;
  std::vector<std::string> keys, labels;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 7));
    labels.push_back("y" + std::to_string(i % 7));
  }
  const auto numeric_base = MakeTwoColumnTable("K", keys, "Y", targets);
  const auto label_base = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Y", Column::MakeString(labels)}});
  struct Case {
    std::optional<MIEstimatorKind> forced;
    std::shared_ptr<Table> base;
    MIEstimatorKind expected;
  };
  for (const Case& c :
       {Case{std::nullopt, numeric_base, MIEstimatorKind::kMixedKSG},
        Case{std::nullopt, label_base, MIEstimatorKind::kDCKSG},
        Case{MIEstimatorKind::kKSG, numeric_base, MIEstimatorKind::kKSG}}) {
    JoinMIConfig config;
    config.sketch_capacity = 1024;
    config.aggregation = AggKind::kFirst;
    config.estimator = c.forced;
    SketchIndex index(config);
    size_t finite_candidates = 0;
    for (size_t rows : {size_t{40}, num_keys}) {
      for (double special : {0.0, inf, -inf, nan}) {
        std::vector<std::string> cand_keys(keys.begin(),
                                           keys.begin() + rows);
        std::vector<double> values;
        for (size_t i = 0; i < rows; ++i) {
          values.push_back(static_cast<double>(i % 7) + 0.01 * i);
        }
        if (special != 0.0) values[rows / 2] = special;
        finite_candidates += special == 0.0;
        auto table = *Table::FromColumns(
            {{"K", Column::MakeString(cand_keys)},
             {"V", Column::MakeDouble(values)}});
        ASSERT_TRUE(index
                        .AddCandidate(*table, {"t" + std::to_string(rows) +
                                                   "_" + std::to_string(special),
                                               "K", "V"})
                        .ok());
      }
    }
    auto query = *JoinMIQuery::Create(*c.base, "K", "Y", config);
    auto evaluation = *index.EvaluateAll(query, 1);
    const std::string where = MIEstimatorKindToString(c.expected);
    EXPECT_EQ(evaluation.num_evaluated, finite_candidates) << where;
    EXPECT_EQ(evaluation.num_errors, index.size() - finite_candidates)
        << where;
    EXPECT_EQ(evaluation.num_skipped, 0u) << where;
    for (size_t i = 0; i < index.size(); ++i) {
      const bool finite = i % 4 == 0;
      ASSERT_EQ(evaluation.estimates[i].has_value(), finite)
          << where << " candidate " << i;
      if (!finite) continue;
      EXPECT_EQ(evaluation.estimates[i]->estimator, c.expected) << where;
      EXPECT_EQ(evaluation.estimates[i]->sample_size, i < 4 ? 40u : num_keys)
          << where;
    }
  }
}

TEST(SketchIndexSeedTest, QueryWithMismatchedSeedIsRejected) {
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  JoinMIConfig other_seed = config;
  other_seed.hash_seed = 7;
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", other_seed);
  auto hits = index.SearchQuery(query, 10, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(hits.ok());
  EXPECT_TRUE(hits.status().IsInvalidArgument());
}

TEST(SketchIndexSeedTest, AddSketchRejectsMismatchedSeed) {
  Universe universe = MakeUniverse();
  JoinMIConfig other_seed = MakeIndexConfig();
  other_seed.hash_seed = 7;
  auto builder = MakeSketchBuilder(other_seed.sketch_method,
                                   other_seed.sketch_options());
  auto exact = *universe.repository.GetTable("exact");
  auto sketch = *builder->SketchCandidate(*(*exact->GetColumn("K")),
                                          *(*exact->GetColumn("V")),
                                          AggKind::kAvg);
  SketchIndex index(MakeIndexConfig());  // seed 0
  auto status = index.AddSketch({"exact", "K", "V"}, std::move(sketch));
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(SketchIndexSeedTest, QueryConfigDriftIsRejected) {
  // A query built under another estimator would be scored under the
  // index's own; only min_join_size may differ, as over RPC.
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  JoinMIConfig drifted = config;
  drifted.estimator = MIEstimatorKind::kMLE;
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", drifted);
  auto evaluation = index.EvaluateAll(query, 1);
  ASSERT_FALSE(evaluation.ok());
  EXPECT_TRUE(evaluation.status().IsInvalidArgument()) << evaluation.status();

  JoinMIConfig relaxed = config;
  relaxed.min_join_size = config.min_join_size + 1000;
  auto relaxed_query =
      *JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
  auto relaxed_evaluation = index.EvaluateAll(relaxed_query, 1);
  ASSERT_TRUE(relaxed_evaluation.ok()) << relaxed_evaluation.status();
  auto same = index.EvaluateAll(
      *JoinMIQuery::Create(*universe.base, "K", "Y", config), 1);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(relaxed_evaluation->num_evaluated, same->num_evaluated);
}

// ---------------------------------------------------- Key postings oracle

// A pool of distinct key hashes in a few clusters that share their top 16
// bits, so a posting bucket holds many keys, plus 0 and UINT64_MAX.
std::vector<uint64_t> ClusteredKeys(Rng& rng, size_t size) {
  const uint64_t tops[3] = {rng.Next64() >> 48, rng.Next64() >> 48, 0xFFFF};
  std::vector<uint64_t> pool{0, std::numeric_limits<uint64_t>::max()};
  while (pool.size() < size) {
    const uint64_t key =
        tops[rng.NextBounded(3)] << 48 | (rng.Next64() & 0xFFFFFFFFFFFFULL);
    if (std::find(pool.begin(), pool.end(), key) == pool.end()) {
      pool.push_back(key);
    }
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

// Candidate value kinds: numeric, labels, numbers with nulls, or a mix of
// int64, label and null; the last two send the gather to the candidate's
// entries.
enum class ValueKind { kNumeric, kLabels, kNumbersAndNulls, kMixed };

Value RandomValue(ValueKind kind, Rng& rng) {
  const int64_t v = static_cast<int64_t>(rng.NextBounded(7));
  switch (kind) {
    case ValueKind::kNumeric:
      return Value(static_cast<double>(v) + 0.25 * rng.Gaussian());
    case ValueKind::kLabels:
      return Value("label" + std::to_string(v));
    case ValueKind::kNumbersAndNulls:
      return rng.NextBounded(8) == 0 ? Value::Null() : Value(v);
    case ValueKind::kMixed:
      break;
  }
  switch (rng.NextBounded(3)) {
    case 0:
      return Value(v);
    case 1:
      return Value("label" + std::to_string(v));
    default:
      return Value::Null();
  }
}

// A candidate sketch over `keys` (ascending, distinct).
Sketch OracleCandidate(const std::vector<uint64_t>& keys, ValueKind kind,
                       Rng& rng) {
  Sketch candidate;
  candidate.side = SketchSide::kCandidate;
  for (uint64_t key : keys) {
    candidate.entries.push_back(SketchEntry{key, 0.5, RandomValue(kind, rng)});
  }
  return candidate;
}

// Each pool key with probability `share`.
std::vector<uint64_t> SampleKeys(const std::vector<uint64_t>& pool,
                                 double share, Rng& rng) {
  std::vector<uint64_t> keys;
  for (uint64_t key : pool) {
    if (rng.NextDouble() < share) keys.push_back(key);
  }
  return keys;
}

// A query whose train holds `keys` (ascending), each 1-3 times, with
// numeric targets.
JoinMIQuery OracleQuery(const std::vector<uint64_t>& keys,
                        const JoinMIConfig& config, Rng& rng) {
  Sketch train;
  train.side = SketchSide::kTrain;
  train.hash_seed = config.hash_seed;
  for (uint64_t key : keys) {
    const size_t copies = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < copies; ++i) {
      train.entries.push_back(SketchEntry{
          key, 0.5, Value(static_cast<double>(key % 5) + rng.Gaussian())});
    }
  }
  return *JoinMIQuery::FromTrainSketch(std::move(train), config);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Checks an evaluation of `query` against the per-candidate kernel: the
// probe's join size and skip (ScoreCandidateSketch) and the estimate or
// error (JoinMIQuery::Estimate), candidate by candidate.
void ExpectMatchesKernel(const SketchIndex& index, const JoinMIQuery& query,
                         const IndexEvaluation& evaluation,
                         const std::string& where) {
  const JoinMIConfig& config = index.config();
  ASSERT_EQ(evaluation.estimates.size(), index.size()) << where;
  size_t skipped = 0;
  size_t errors = 0;
  for (size_t c = 0; c < index.size(); ++c) {
    const Sketch& candidate = index.candidates()[c].sketch();
    auto probe = ScoreCandidateSketch(
        query.train_sketch(), query.train_runs(), candidate,
        config.estimator, config.mi_options, config.min_join_size);
    ASSERT_TRUE(probe.ok()) << where << ": " << probe.status();
    const Result<JoinMIEstimate> expected = query.Estimate(candidate);
    const std::optional<JoinMIEstimate>& got = evaluation.estimates[c];
    const std::string at = where + ", candidate " + std::to_string(c);
    ASSERT_EQ(got.has_value(), expected.ok()) << at << ": "
                                              << expected.status();
    if (!expected.ok()) {
      const bool skip = !probe->scored.has_value() ||
                        expected.status().IsOutOfRange();
      skipped += skip;
      errors += !skip;
      continue;
    }
    EXPECT_EQ(Bits(got->mi), Bits(expected->mi)) << at;
    EXPECT_EQ(got->estimator, expected->estimator) << at;
    EXPECT_EQ(got->sample_size, expected->sample_size) << at;
    EXPECT_EQ(got->sample_size, probe->join_size) << at;
  }
  EXPECT_EQ(evaluation.num_skipped, skipped) << where;
  EXPECT_EQ(evaluation.num_errors, errors) << where;
  EXPECT_EQ(evaluation.num_evaluated, index.size() - skipped - errors)
      << where;
}

struct OracleCase {
  std::vector<Sketch> candidates;
  // A train over part of the pool, with 0, UINT64_MAX and the key every
  // candidate holds; the same without the shared key, which the
  // candidates over other keys then do not join.
  std::vector<uint64_t> train_keys;
  std::vector<uint64_t> train_keys_unshared;
};

// Candidates of every value kind over a clustered pool, every one holding
// one shared key and one in eight no other train key, and trains over
// part of the pool.
OracleCase MakeOracleCase(uint64_t seed) {
  Rng rng(seed);
  const std::vector<uint64_t> pool = ClusteredKeys(rng, 400);
  // Keys no train holds: the no-join candidates draw from these.
  std::vector<uint64_t> elsewhere;
  for (size_t i = 0; i < 64; ++i) elsewhere.push_back(0x5000 + 7 * i);
  const uint64_t shared = pool[pool.size() / 2];
  OracleCase oracle;
  for (size_t c = 0; c < 48; ++c) {
    std::vector<uint64_t> keys = c % 8 == 7
                                     ? SampleKeys(elsewhere, 0.5, rng)
                                     : SampleKeys(pool, rng.NextDouble(), rng);
    if (std::find(keys.begin(), keys.end(), shared) == keys.end()) {
      keys.push_back(shared);
      std::sort(keys.begin(), keys.end());
    }
    const ValueKind kind = static_cast<ValueKind>(c % 4);
    oracle.candidates.push_back(OracleCandidate(keys, kind, rng));
  }
  oracle.train_keys = SampleKeys(pool, 0.6, rng);
  for (uint64_t edge : {pool.front(), pool.back(), shared}) {
    if (std::find(oracle.train_keys.begin(), oracle.train_keys.end(),
                  edge) == oracle.train_keys.end()) {
      oracle.train_keys.push_back(edge);
    }
  }
  std::sort(oracle.train_keys.begin(), oracle.train_keys.end());
  for (uint64_t key : oracle.train_keys) {
    if (key != shared) oracle.train_keys_unshared.push_back(key);
  }
  return oracle;
}

SketchIndex OracleIndex(const std::vector<Sketch>& candidates,
                        const JoinMIConfig& config) {
  SketchIndex index(config);
  for (size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_TRUE(
        index.AddSketch({"t" + std::to_string(c), "K", "V"}, candidates[c])
            .ok());
  }
  return index;
}

TEST(SketchIndexPostingsTest, MatchesTheKernelAcrossFloorsAndSeeds) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    const OracleCase oracle = MakeOracleCase(seed);
    for (size_t floor :
         {size_t{0}, size_t{1}, size_t{20}, std::numeric_limits<size_t>::max()}) {
      JoinMIConfig config;
      config.min_join_size = floor;
      const SketchIndex index = OracleIndex(oracle.candidates, config);
      // A loaded index builds its postings in the loader.
      auto loaded = DeserializeIndex(SerializeIndex(index));
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      Rng rng(seed);
      for (const std::vector<uint64_t>* train_keys :
           {&oracle.train_keys, &oracle.train_keys_unshared}) {
        const JoinMIQuery query = OracleQuery(*train_keys, config, rng);
        for (size_t threads : {1, 4}) {
          const std::string where =
              "seed " + std::to_string(seed) + ", floor " +
              std::to_string(floor) + ", threads " + std::to_string(threads) +
              (train_keys == &oracle.train_keys ? "" : ", unshared");
          auto evaluation = index.EvaluateAll(query, threads);
          ASSERT_TRUE(evaluation.ok()) << where << ": " << evaluation.status();
          ExpectMatchesKernel(index, query, *evaluation, where);
          if (floor == 20) {
            // Every outcome is on the path being compared.
            EXPECT_GT(evaluation->num_evaluated, 0u) << where;
            EXPECT_GT(evaluation->num_skipped, 0u) << where;
            EXPECT_GT(evaluation->num_errors, 0u) << where;
          }
          auto reloaded = loaded->EvaluateAll(query, threads);
          ASSERT_TRUE(reloaded.ok()) << reloaded.status();
          ExpectMatchesKernel(*loaded, query, *reloaded, "loaded, " + where);
        }
      }
    }
  }
}

TEST(SketchIndexPostingsTest, EmptyTrainAndEmptyIndexMatchTheKernel) {
  const OracleCase oracle = MakeOracleCase(5);
  for (size_t floor : {size_t{0}, size_t{1}}) {
    JoinMIConfig config;
    config.min_join_size = floor;
    Rng rng(5);
    const JoinMIQuery empty_train = OracleQuery({}, config, rng);
    const SketchIndex index = OracleIndex(oracle.candidates, config);
    auto evaluation = index.EvaluateAll(empty_train, 1);
    ASSERT_TRUE(evaluation.ok()) << evaluation.status();
    ExpectMatchesKernel(index, empty_train, *evaluation,
                        "empty train, floor " + std::to_string(floor));

    const SketchIndex empty(config);
    const JoinMIQuery query = OracleQuery(oracle.train_keys, config, rng);
    auto none = empty.EvaluateAll(query, 1);
    ASSERT_TRUE(none.ok()) << none.status();
    EXPECT_TRUE(none->estimates.empty());
  }
}

TEST(SketchIndexPostingsTest, AddSketchAfterEvaluateAllIsVisible) {
  const OracleCase oracle = MakeOracleCase(6);
  JoinMIConfig config;
  config.min_join_size = 1;
  Rng rng(6);
  const JoinMIQuery query = OracleQuery(oracle.train_keys, config, rng);
  SketchIndex index(config);
  const size_t half = oracle.candidates.size() / 2;
  for (size_t c = 0; c < oracle.candidates.size(); ++c) {
    ASSERT_TRUE(
        index.AddSketch({"t" + std::to_string(c), "K", "V"},
                        oracle.candidates[c])
            .ok());
    if (c + 1 != half && c + 1 != oracle.candidates.size()) continue;
    auto evaluation = index.EvaluateAll(query, 2);
    ASSERT_TRUE(evaluation.ok()) << evaluation.status();
    ExpectMatchesKernel(index, query, *evaluation,
                        std::to_string(c + 1) + " candidates");
  }
}

TEST(SketchIndexPostingsTest, ConcurrentFirstEvaluationsOfAFreshIndex) {
  // Eight readers race to the lazy postings build of a fresh index; each
  // must see complete postings (TSan checks the build's publication).
  const OracleCase oracle = MakeOracleCase(7);
  JoinMIConfig config;
  config.min_join_size = 1;
  Rng rng(7);
  const JoinMIQuery query = OracleQuery(oracle.train_keys, config, rng);
  const SketchIndex index = OracleIndex(oracle.candidates, config);
  constexpr size_t kReaders = 8;
  std::vector<std::optional<Result<IndexEvaluation>>> results(kReaders);
  std::atomic<size_t> arrived{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kReaders) std::this_thread::yield();
      results[t] = index.EvaluateAll(query, 1 + t % 2);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (size_t t = 0; t < kReaders; ++t) {
    ASSERT_TRUE(results[t]->ok()) << results[t]->status();
    ExpectMatchesKernel(index, query, **results[t],
                        "reader " + std::to_string(t));
  }
}

// --------------------------------------------------------- Parallel build

// Pairs IndexRepository sketches per wave on this machine: 16 per thread of
// the fan-out's budget.
size_t BuildWave() { return 16 * DefaultThreadCount(); }

// `num_tables` tables "t0000", "t0001", ... of a string key column K and
// an int64 value column V, so each is one pair of ExtractColumnPairs. Row
// counts and keys vary by table. A table listed in `unsketchable` gets a
// string V instead, which the default avg aggregation cannot sketch: its
// two pairs, (K, V) and (V, K), both fail. A table listed in `all_null`
// gets an all-null V, which has nothing to sketch: its one pair fails.
TableRepository MakeWideRepository(size_t num_tables,
                                   const std::vector<size_t>& unsketchable,
                                   const std::vector<size_t>& all_null = {}) {
  auto listed = [](const std::vector<size_t>& list, size_t t) {
    return std::find(list.begin(), list.end(), t) != list.end();
  };
  TableRepository repository;
  Rng rng(90210);
  for (size_t t = 0; t < num_tables; ++t) {
    const size_t rows = 20 + (t * 7) % 60;
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    for (size_t r = 0; r < rows; ++r) {
      keys.push_back("key" + std::to_string(rng.NextBounded(200)));
      values.push_back(static_cast<int64_t>(rng.NextBounded(9)));
    }
    std::shared_ptr<Column> value_column =
        listed(unsketchable, t)
            ? Column::MakeString(keys)
            : Column::MakeInt64(std::move(values),
                                listed(all_null, t) ? std::vector<bool>(rows)
                                                    : std::vector<bool>());
    char name[24];
    std::snprintf(name, sizeof(name), "t%04zu", t);
    repository
        .AddTable(name,
                  *Table::FromColumns({{"K", Column::MakeString(keys)},
                                       {"V", std::move(value_column)}}))
        .Abort();
  }
  return repository;
}

// The reference build: AddCandidate on each pair in enumeration order.
struct SerialBuild {
  std::string bytes;
  size_t indexed = 0;
};

SerialBuild BuildSerially(const TableRepository& repository,
                          const JoinMIConfig& config) {
  SketchIndex index(config);
  SerialBuild out;
  for (const ColumnPairRef& ref : repository.ExtractColumnPairs()) {
    auto table = repository.GetTable(ref.table_name);
    EXPECT_TRUE(table.ok()) << table.status();
    if (index.AddCandidate(**table, ref).ok()) ++out.indexed;
  }
  out.bytes = SerializeIndex(index);
  return out;
}

void ExpectBuildMatches(const TableRepository& repository,
                        const JoinMIConfig& config, const SerialBuild& serial,
                        const std::string& label) {
  SketchIndex index(config);
  auto indexed = index.IndexRepository(repository);
  ASSERT_TRUE(indexed.ok()) << label << ": " << indexed.status();
  EXPECT_EQ(*indexed, serial.indexed) << label;
  EXPECT_TRUE(SerializeIndex(index) == serial.bytes) << label;
}

JoinMIConfig BuildConfig() {
  JoinMIConfig config;
  config.sketch_capacity = 32;
  return config;
}

TEST(SketchIndexBuildTest, ParallelBuildIsTheSerialBuildAcrossWaves) {
  // Over three waves, with unsketchable pairs on both sides of the first
  // wave boundary (table wave - 1 holds pairs wave - 1 and wave) and
  // inside the third wave, and all-null pairs in the second: the same
  // bytes and count as AddCandidate in enumeration order.
  const size_t wave = BuildWave();
  const size_t num_tables = 3 * wave + 5;
  const std::vector<size_t> unsketchable = {wave - 1, 2 * wave + wave / 2};
  const std::vector<size_t> all_null = {wave + 2, wave + wave / 2};
  const TableRepository repository =
      MakeWideRepository(num_tables, unsketchable, all_null);
  const std::vector<ColumnPairRef> pairs = repository.ExtractColumnPairs();
  ASSERT_EQ(pairs.size(), num_tables + unsketchable.size());
  EXPECT_EQ(pairs[wave - 1].key_column, "K");
  EXPECT_EQ(pairs[wave].key_column, "V");
  const SerialBuild serial = BuildSerially(repository, BuildConfig());
  EXPECT_EQ(serial.indexed,
            num_tables - unsketchable.size() - all_null.size());
  ExpectBuildMatches(repository, BuildConfig(), serial, "three waves");
}

TEST(SketchIndexBuildTest, AllNullValueColumnsAreNotIndexed) {
  // An all-null value column would sketch to an empty candidate that every
  // query counts as skipped: the build leaves its pair out, and
  // AddCandidate refuses it.
  const TableRepository repository = MakeWideRepository(6, {}, {2, 4});
  SketchIndex index(BuildConfig());
  auto indexed = index.IndexRepository(repository);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(*indexed, 4u);
  ASSERT_EQ(index.size(), 4u);
  for (const IndexedCandidate& candidate : index.candidates()) {
    EXPECT_NE(candidate.ref.table_name, "t0002");
    EXPECT_NE(candidate.ref.table_name, "t0004");
  }
  auto all_null = repository.GetTable("t0002");
  ASSERT_TRUE(all_null.ok());
  EXPECT_TRUE(index.AddCandidate(**all_null, {"t0002", "K", "V"})
                  .IsInvalidArgument());
  EXPECT_EQ(index.size(), 4u);

  auto base = repository.GetTable("t0000");
  ASSERT_TRUE(base.ok());
  auto result = TopKJoinMISearch(**base, {"K", "V"}, index, 6);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_candidates, 4u);
}

TEST(SketchIndexBuildTest, JoinsTooSmallForTheEstimatorAreSkipped) {
  // Under the default min_join_size of 1 and k = 3, numeric candidates
  // sharing 1-3 keys with a numeric-target query reach MixedKSG with at
  // most k pairs, and one sharing 1 key with a string-target query reaches
  // DC-KSG with one pair: overlaps too small to estimate, so skipped, not
  // errors. The rest are scored.
  JoinMIConfig config;
  ASSERT_EQ(config.min_join_size, 1u);
  ASSERT_EQ(config.mi_options.k, 3);
  std::vector<std::string> base_keys;
  std::vector<int64_t> numeric_targets;
  std::vector<std::string> string_targets;
  for (size_t i = 0; i < 160; ++i) {
    base_keys.push_back("key" + std::to_string(i));
    numeric_targets.push_back(static_cast<int64_t>(i % 7));
    // Runs of ten keys share a class, so DC-KSG keeps small samples.
    string_targets.push_back("t" + std::to_string(i / 10));
  }
  TableRepository repository;
  for (size_t shared : {1, 2, 3, 40}) {
    // `shared` of the query's keys, then keys the query does not hold.
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    for (size_t i = 0; i < 50; ++i) {
      keys.push_back((i < shared ? "key" : "other") + std::to_string(i));
      values.push_back(static_cast<int64_t>(i % 5));
    }
    repository
        .AddTable("numeric" + std::to_string(shared),
                  MakeTwoColumnTable("K", keys, "V", values))
        .Abort();
  }
  SketchIndex index(config);
  auto indexed = index.IndexRepository(repository);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_EQ(*indexed, 4u);

  const std::shared_ptr<Table> numeric_base =
      MakeTwoColumnTable("K", base_keys, "Y", numeric_targets);
  auto numeric = TopKJoinMISearch(*numeric_base, {"K", "Y"}, index, 4);
  ASSERT_TRUE(numeric.ok()) << numeric.status();
  EXPECT_EQ(numeric->num_errors, 0u);
  EXPECT_EQ(numeric->num_skipped, 3u);
  EXPECT_EQ(numeric->num_evaluated, 1u);
  ASSERT_EQ(numeric->hits.size(), 1u);
  EXPECT_EQ(numeric->hits[0].candidate.table_name, "numeric40");
  EXPECT_EQ(numeric->hits[0].estimate.estimator, MIEstimatorKind::kMixedKSG);

  const std::shared_ptr<Table> string_base = *Table::FromColumns(
      {{"K", Column::MakeString(base_keys)},
       {"Y", Column::MakeString(string_targets)}});
  auto string = TopKJoinMISearch(*string_base, {"K", "Y"}, index, 4);
  ASSERT_TRUE(string.ok()) << string.status();
  EXPECT_EQ(string->num_errors, 0u);
  EXPECT_EQ(string->num_skipped, 1u);
  EXPECT_EQ(string->num_evaluated, 3u);
  for (const SearchHit& hit : string->hits) {
    EXPECT_NE(hit.candidate.table_name, "numeric1");
    EXPECT_EQ(hit.estimate.estimator, MIEstimatorKind::kDCKSG);
  }
}

TEST(SketchIndexBuildTest, DistinctDiscreteTargetsAreSkipped) {
  // A string target unique per key (an identifier-like column) leaves
  // DC-KSG no discrete value that repeats, however many keys a numeric
  // candidate shares: nothing to estimate, so every candidate is skipped,
  // not an error.
  std::vector<std::string> base_keys;
  std::vector<std::string> distinct_targets;
  for (size_t i = 0; i < 160; ++i) {
    base_keys.push_back("key" + std::to_string(i));
    distinct_targets.push_back("id" + std::to_string(i));
  }
  TableRepository repository;
  for (size_t shared : {2, 3, 10, 40}) {
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    for (size_t i = 0; i < 50; ++i) {
      keys.push_back((i < shared ? "key" : "other") + std::to_string(i));
      values.push_back(static_cast<int64_t>(i % 5));
    }
    repository
        .AddTable("numeric" + std::to_string(shared),
                  MakeTwoColumnTable("K", keys, "V", values))
        .Abort();
  }
  SketchIndex index{JoinMIConfig{}};
  auto indexed = index.IndexRepository(repository);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_EQ(*indexed, 4u);
  const std::shared_ptr<Table> base = *Table::FromColumns(
      {{"K", Column::MakeString(base_keys)},
       {"Y", Column::MakeString(distinct_targets)}});
  for (size_t num_threads : {1u, 4u}) {
    auto result = TopKJoinMISearch(*base, {"K", "Y"}, index, 4, num_threads);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_candidates, 4u);
    EXPECT_EQ(result->num_errors, 0u);
    EXPECT_EQ(result->num_skipped, 4u);
    EXPECT_EQ(result->num_evaluated, 0u);
    EXPECT_TRUE(result->hits.empty());
  }
}

TEST(SketchIndexBuildTest, EmptyRepositoryBuildsAnEmptyIndex) {
  const TableRepository repository;
  const SerialBuild serial = BuildSerially(repository, BuildConfig());
  EXPECT_EQ(serial.indexed, 0u);
  ExpectBuildMatches(repository, BuildConfig(), serial, "empty");
}

TEST(SketchIndexBuildTest, BuildFromInsideAPoolWorkerMatches) {
  // A build nested in another fan-out shares the pool with it: each of four
  // outer indices builds the whole repository.
  const TableRepository repository =
      MakeWideRepository(BuildWave() + 3, {1});
  const SerialBuild serial = BuildSerially(repository, BuildConfig());
  constexpr size_t kBuilds = 4;
  std::vector<SerialBuild> builds(kBuilds);
  ParallelFor(kBuilds, 0, [&](size_t b) {
    SketchIndex index(BuildConfig());
    auto indexed = index.IndexRepository(repository);
    if (indexed.ok()) builds[b] = {SerializeIndex(index), *indexed};
  });
  for (size_t b = 0; b < kBuilds; ++b) {
    EXPECT_EQ(builds[b].indexed, serial.indexed) << "build " << b;
    EXPECT_TRUE(builds[b].bytes == serial.bytes) << "build " << b;
  }
}

TEST(SketchIndexBuildTest, ConcurrentBuildsOfTwoIndexesMatch) {
  const TableRepository first = MakeWideRepository(BuildWave() + 9, {4});
  const TableRepository second = MakeWideRepository(2 * BuildWave(), {});
  const SerialBuild serial_first = BuildSerially(first, BuildConfig());
  const SerialBuild serial_second = BuildSerially(second, BuildConfig());
  std::thread other([&] {
    ExpectBuildMatches(second, BuildConfig(), serial_second, "second");
  });
  ExpectBuildMatches(first, BuildConfig(), serial_first, "first");
  other.join();
}

// ------------------------------------------------------------ Persistence

TEST(SketchIndexPersistenceTest, SerializeRoundTripsByteExactly) {
  Universe universe = MakeUniverse();
  JoinMIConfig config = MakeIndexConfig();
  config.hash_seed = 42;
  config.estimator = MIEstimatorKind::kMLE;
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());

  const std::string data = SerializeIndex(index);
  auto restored = DeserializeIndex(data);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), index.size());
  EXPECT_EQ(restored->config().hash_seed, 42u);
  EXPECT_EQ(restored->config().min_join_size, config.min_join_size);
  ASSERT_TRUE(restored->config().estimator.has_value());
  EXPECT_EQ(*restored->config().estimator, MIEstimatorKind::kMLE);
  // Byte-exact: re-serializing the loaded index reproduces the buffer.
  EXPECT_EQ(SerializeIndex(*restored), data);
}

TEST(SketchIndexPersistenceTest, FileRoundTripPreservesQueryResults) {
  Universe universe = MakeUniverse();
  const JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string path = testing::TempDir() + "/joinmi_index_test.bin";
  ASSERT_TRUE(WriteIndexFile(index, path).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // A query against the loaded index must reproduce the in-memory results
  // exactly — the whole point of persisting sketches across processes.
  auto query = *JoinMIQuery::Create(*universe.base, "K", "Y", config);
  auto before = Rank(index, query, 10, 1);
  auto after = Rank(*loaded, query, 10, 1);
  ExpectSameHits(before, after);
  ASSERT_GE(before.size(), 1u);
  EXPECT_EQ(before[0].candidate.table_name, "exact");

  EXPECT_FALSE(ReadIndexFile("/no/such/dir/index.bin").ok());
}

TEST(SketchIndexPersistenceTest, EmptyIndexRoundTrips) {
  JoinMIConfig config = MakeIndexConfig();
  SketchIndex index(config);
  const std::string data = SerializeIndex(index);
  auto restored = DeserializeIndex(data);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_EQ(SerializeIndex(*restored), data);
}

TEST(SketchIndexPersistenceTest, RejectsCorruptedInputs) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string data = SerializeIndex(index);

  std::string bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeIndex(bad_magic).ok());

  std::string bad_version = data;
  bad_version[4] = 99;
  EXPECT_FALSE(DeserializeIndex(bad_version).ok());

  // Truncations at every interesting prefix must fail cleanly.
  for (size_t len : {0u, 3u, 8u, 20u, 40u, 60u}) {
    EXPECT_FALSE(DeserializeIndex(data.substr(0, len)).ok()) << len;
  }
  EXPECT_FALSE(DeserializeIndex(data.substr(0, data.size() - 1)).ok());
  EXPECT_FALSE(DeserializeIndex(data + "x").ok());
}

TEST(SketchIndexPersistenceTest, TruncationErrorsSayWhereAndHowMuch) {
  // The error-reporting contract: a truncated or empty index must name
  // actual vs expected sizes (empty / header-only cases) or the candidate
  // the parse died inside (mid-candidate truncation) — not a bare
  // "truncated buffer".
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 3u);
  const std::string data = SerializeIndex(index);
  // magic + version + config + count — the minimum parseable index.
  const size_t header_size = 4 + 4 + kJoinMIConfigWireSize + 8;

  auto empty = DeserializeIndex("");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos)
      << empty.status();
  EXPECT_NE(empty.status().message().find(std::to_string(header_size)),
            std::string::npos)
      << empty.status();

  auto short_file = DeserializeIndex(data.substr(0, 40));
  ASSERT_FALSE(short_file.ok());
  EXPECT_NE(short_file.status().message().find("40 bytes"),
            std::string::npos)
      << short_file.status();
  EXPECT_NE(short_file.status().message().find(std::to_string(header_size)),
            std::string::npos)
      << short_file.status();

  // Header-only: the count promises 3 candidates, zero bytes follow.
  auto header_only = DeserializeIndex(data.substr(0, header_size));
  ASSERT_FALSE(header_only.ok());
  EXPECT_NE(header_only.status().message().find(
                "promises 3 candidates but only 0 bytes"),
            std::string::npos)
      << header_only.status();

  // A count whose byte minimum (count * 16) wraps u64 is reported as the
  // count itself, never as the wrapped product.
  std::string huge = data.substr(0, header_size) + std::string(20, '\0');
  const uint64_t huge_count = (uint64_t{1} << 60) + 1;
  std::memcpy(&huge[header_size - sizeof(huge_count)], &huge_count,
              sizeof(huge_count));
  auto wrapped = DeserializeIndex(huge);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.status().message().find(
                "promises " + std::to_string(huge_count) +
                " candidates but only 20 bytes"),
            std::string::npos)
      << wrapped.status();
  EXPECT_EQ(wrapped.status().message().find("at least 16 required"),
            std::string::npos)
      << wrapped.status();

  // Mid-candidate: the file ends one byte inside the last candidate.
  auto mid = DeserializeIndex(data.substr(0, data.size() - 1));
  ASSERT_FALSE(mid.ok());
  EXPECT_NE(mid.status().message().find("candidate 2 of 3"),
            std::string::npos)
      << mid.status();
}

TEST(SketchIndexPersistenceTest, ReadIndexFileReportsPathAndFileSize) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string data = SerializeIndex(index);

  const std::string path = testing::TempDir() + "/joinmi_truncated_index.bin";
  const std::string truncated = data.substr(0, 40);
  ASSERT_TRUE(wire::WriteFileBytes(truncated, path).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("40 bytes"), std::string::npos)
      << loaded.status();

  const std::string empty_path = testing::TempDir() + "/joinmi_empty_index.bin";
  ASSERT_TRUE(wire::WriteFileBytes("", empty_path).ok());
  auto empty = ReadIndexFile(empty_path);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find(empty_path), std::string::npos)
      << empty.status();
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos)
      << empty.status();
}

// ------------------------------------------- Index-backed search overload

void ExpectSameSearchHits(const TopKSearchResult& a,
                          const TopKSearchResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].candidate.table_name,
              b.hits[i].candidate.table_name);
    EXPECT_EQ(a.hits[i].candidate.key_column, b.hits[i].candidate.key_column);
    EXPECT_EQ(a.hits[i].candidate.value_column,
              b.hits[i].candidate.value_column);
    EXPECT_EQ(a.hits[i].estimate.mi, b.hits[i].estimate.mi);
    EXPECT_EQ(a.hits[i].estimate.sample_size,
              b.hits[i].estimate.sample_size);
    EXPECT_EQ(a.hits[i].estimate.estimator, b.hits[i].estimate.estimator);
  }
}

TEST(IndexedSearchTest, MatchesPerQuerySketchingRanking) {
  // The acceptance gate: at the same config and seed, probing the persisted
  // index must return rankings identical to sketching every candidate per
  // query (the serial ScanReference) — including after the index survives
  // a file round trip.
  Universe universe = MakeUniverse();
  auto via_repo = ScanReference(*universe.base, {"K", "Y"},
                                universe.repository, 10, MakeIndexConfig());
  ASSERT_TRUE(via_repo.ok()) << via_repo.status();
  ASSERT_EQ(via_repo->hits.size(), 3u);

  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  for (size_t num_threads : {1u, 4u, 0u}) {
    auto via_index = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 10,
                                      num_threads);
    ASSERT_TRUE(via_index.ok()) << via_index.status();
    EXPECT_EQ(via_index->num_candidates, index.size());
    EXPECT_EQ(via_index->num_evaluated, via_repo->num_evaluated);
    ExpectSameSearchHits(*via_repo, *via_index);
  }

  const std::string path = testing::TempDir() + "/joinmi_search_index.bin";
  ASSERT_TRUE(WriteIndexFile(index, path).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto via_loaded =
      TopKJoinMISearch(*universe.base, {"K", "Y"}, *loaded, 10, 1);
  ASSERT_TRUE(via_loaded.ok()) << via_loaded.status();
  ExpectSameSearchHits(*via_repo, *via_loaded);
}

TEST(IndexedSearchTest, RejectsZeroK) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  auto result = TopKJoinMISearch(*universe.base, {"K", "Y"}, index, 0, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace joinmi
