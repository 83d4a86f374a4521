// The scoring kernel on columnar sketches against a naive O(n·m) join over
// the same columns (tests/naive_join_reference.h): every sketch method,
// numeric, string and mixed/null values, built and hand-made sketches, and
// each kernel path — the per-candidate probe (JoinMIQuery::Estimate), the
// index's postings (SketchIndex::EvaluateAll) and the hash-map oracle pair
// (JoinSketches + ScoreSketchJoinSample).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/sketch_join.h"
#include "src/table/table.h"
#include "tests/naive_join_reference.h"

namespace joinmi {
namespace {

constexpr uint32_t kSeed = 5;

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::string Key(uint64_t i) { return "k" + std::to_string(i); }

// A table of `rows` rows over keys [0, domain) with a value column of
// `type`; values depend on the key so the joins carry signal.
std::shared_ptr<Table> MakeTable(size_t rows, uint64_t domain, DataType type,
                                 Rng& rng) {
  std::vector<std::string> keys;
  std::vector<double> doubles;
  std::vector<int64_t> ints;
  std::vector<std::string> words;
  for (size_t row = 0; row < rows; ++row) {
    const uint64_t k = rng.NextBounded(domain);
    const uint64_t noise = rng.NextBounded(3);
    keys.push_back(Key(k));
    doubles.push_back(static_cast<double>(k % 7) + 0.25 * noise);
    ints.push_back(static_cast<int64_t>(k % 5 + noise));
    words.push_back("w" + std::to_string((k + noise) % 4));
  }
  std::shared_ptr<Column> values =
      type == DataType::kDouble  ? Column::MakeDouble(std::move(doubles))
      : type == DataType::kInt64 ? Column::MakeInt64(std::move(ints))
                                 : Column::MakeString(std::move(words));
  return *Table::FromColumns(
      {{"K", Column::MakeString(std::move(keys))}, {"V", values}});
}

// A random value: a double, an int64, a string, or (when `nulls`) a null.
Value MixedValue(uint64_t key, bool nulls, Rng& rng) {
  switch (rng.NextBounded(nulls ? 4 : 3)) {
    case 0:
      return Value(static_cast<double>(key % 6) * 0.5);
    case 1:
      return Value(static_cast<int64_t>(key % 4));
    case 2:
      return Value("m" + std::to_string(key % 3));
    default:
      return Value::Null();
  }
}

// A hand-made sketch over keys [0, domain) whose values mix types: unique
// keys for a candidate, one to three entries per key for a train.
Sketch MixedSketch(SketchSide side, uint64_t domain, bool nulls, Rng& rng) {
  struct Entry {
    uint64_t key_hash;
    double rank;
    Value value;
  };
  std::vector<Entry> entries;
  for (uint64_t k = 0; k < domain; ++k) {
    if (rng.NextBounded(3) == 0) continue;
    const uint64_t h = HashKey(Value(Key(k)), kSeed);
    const uint64_t copies =
        side == SketchSide::kTrain ? 1 + rng.NextBounded(3) : 1;
    for (uint64_t j = 1; j <= copies; ++j) {
      entries.push_back(
          Entry{h, TupleUnitHash(h, j), MixedValue(k, nulls, rng)});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key_hash != b.key_hash ? a.key_hash < b.key_hash : a.rank < b.rank;
  });
  Sketch sketch;
  sketch.side = side;
  sketch.hash_seed = kSeed;
  for (const Entry& entry : entries) {
    sketch.Append(entry.key_hash, entry.rank, entry.value);
  }
  return sketch;
}

// A candidate whose values are numbers on keys [0, domain) and a label
// and a null on two keys no query holds: its summary is mixed, but every
// join it makes is all numeric, so the kernel reads its numbers.
Sketch NumbersWithStrayLabels(uint64_t domain, Rng& rng) {
  std::vector<std::pair<uint64_t, Value>> entries;
  for (uint64_t k = 0; k < domain; ++k) {
    entries.emplace_back(HashKey(Value(Key(k)), kSeed),
                         Value(static_cast<double>(k % 6) +
                               0.5 * static_cast<double>(rng.NextBounded(2))));
  }
  entries.emplace_back(HashKey(Value(Key(100000)), kSeed), Value("stray"));
  entries.emplace_back(HashKey(Value(Key(100001)), kSeed), Value::Null());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Sketch sketch;
  sketch.side = SketchSide::kCandidate;
  sketch.hash_seed = kSeed;
  for (const auto& [key_hash, value] : entries) {
    sketch.Append(key_hash, KeyUnitHash(key_hash), value);
  }
  return sketch;
}

void ExpectSameOutcome(const NaiveOutcome& naive,
                       const Result<JoinMIEstimate>& got,
                       const std::string& where) {
  ASSERT_EQ(got.ok(), naive.status.ok())
      << where << ": " << got.status() << " vs " << naive.status;
  if (!naive.status.ok()) {
    EXPECT_EQ(got.status().IsOutOfRange(), naive.status.IsOutOfRange())
        << where << ": " << got.status() << " vs " << naive.status;
    return;
  }
  EXPECT_EQ(Bits(got->mi), Bits(naive.mi)) << where;
  EXPECT_EQ(got->estimator, naive.estimator) << where;
  EXPECT_EQ(got->sample_size, naive.join_size) << where;
}

TEST(ColumnJoinTest, EveryKernelPathMatchesTheNaiveJoin) {
  const SketchMethod methods[] = {SketchMethod::kTupsk, SketchMethod::kLv2sk,
                                  SketchMethod::kPrisk, SketchMethod::kIndsk,
                                  SketchMethod::kCsk};
  const DataType types[] = {DataType::kDouble, DataType::kInt64,
                            DataType::kString};
  const std::optional<MIEstimatorKind> estimators[] = {
      std::nullopt, MIEstimatorKind::kMLE, MIEstimatorKind::kDCKSG,
      MIEstimatorKind::kMixedKSG};
  size_t checked = 0;
  for (SketchMethod method : methods) {
    for (const std::optional<MIEstimatorKind>& estimator : estimators) {
      Rng rng(static_cast<uint64_t>(method) * 31 + 7);
      JoinMIConfig config;
      config.sketch_method = method;
      config.sketch_capacity = 48;
      config.hash_seed = kSeed;
      config.aggregation = AggKind::kMode;
      config.min_join_size = 4;
      config.estimator = estimator;
      const std::string tag = std::string(SketchMethodToString(method)) +
                              " " +
                              (estimator.has_value()
                                   ? MIEstimatorKindToString(*estimator)
                                   : "auto");

      SketchIndex index(config);
      for (DataType type : types) {
        for (uint64_t domain : {60, 400}) {
          ASSERT_TRUE(index
                          .AddCandidate(*MakeTable(300, domain, type, rng),
                                        {std::string(DataTypeToString(type)) +
                                             std::to_string(domain),
                                         "K", "V"})
                          .ok());
        }
      }
      for (bool nulls : {false, true}) {
        ASSERT_TRUE(index
                        .AddSketch({nulls ? "mixed_nulls" : "mixed", "K", "V"},
                                   MixedSketch(SketchSide::kCandidate, 90,
                                               nulls, rng))
                        .ok());
      }
      ASSERT_TRUE(index
                      .AddSketch({"stray_labels", "K", "V"},
                                 NumbersWithStrayLabels(90, rng))
                      .ok());

      std::vector<JoinMIQuery> queries;
      for (DataType type : types) {
        auto query = JoinMIQuery::Create(*MakeTable(500, 100, type, rng), "K",
                                         "V", config);
        ASSERT_TRUE(query.ok()) << query.status();
        queries.push_back(std::move(*query));
      }
      for (bool nulls : {false, true}) {
        auto query = JoinMIQuery::FromTrainSketch(
            MixedSketch(SketchSide::kTrain, 100, nulls, rng), config);
        ASSERT_TRUE(query.ok()) << query.status();
        queries.push_back(std::move(*query));
      }

      for (size_t q = 0; q < queries.size(); ++q) {
        const JoinMIQuery& query = queries[q];
        auto evaluation = index.EvaluateAll(query, 1);
        ASSERT_TRUE(evaluation.ok()) << evaluation.status();
        size_t skipped = 0, errors = 0;
        for (size_t c = 0; c < index.size(); ++c) {
          const Sketch& candidate = index.candidates()[c].sketch();
          const std::string where = tag + ", query " + std::to_string(q) +
                                    ", " + index.candidates()[c].ref.ToString();
          const NaiveOutcome naive =
              NaiveJoinScore(query.train_sketch(), candidate, estimator,
                             config.mi_options, config.min_join_size);
          skipped += naive.status.IsOutOfRange();
          errors += !naive.status.ok() && !naive.status.IsOutOfRange();

          ExpectSameOutcome(naive, query.Estimate(candidate), where + " probe");

          const std::optional<JoinMIEstimate>& indexed =
              evaluation->estimates[c];
          ExpectSameOutcome(naive,
                            indexed.has_value()
                                ? Result<JoinMIEstimate>(*indexed)
                                : Result<JoinMIEstimate>(
                                      naive.status.ok()
                                          ? Status::UnknownError("no estimate")
                                          : naive.status),
                            where + " index");

          auto joined = JoinSketches(query.train_sketch(), candidate);
          ASSERT_TRUE(joined.ok()) << where << ": " << joined.status();
          EXPECT_EQ(joined->join_size, naive.join_size) << where;
          auto scored = ScoreSketchJoinSample(joined->sample,
                                              joined->join_size, estimator,
                                              config.mi_options,
                                              config.min_join_size);
          ExpectSameOutcome(
              naive,
              scored.ok() ? Result<JoinMIEstimate>(JoinMIEstimate{
                                scored->mi, scored->estimator,
                                scored->join_size, true})
                          : Result<JoinMIEstimate>(scored.status()),
              where + " oracle pair");
          checked += naive.status.ok();
        }
        EXPECT_EQ(evaluation->num_skipped, skipped) << tag << " query " << q;
        EXPECT_EQ(evaluation->num_errors, errors) << tag << " query " << q;
      }
    }
  }
  // The sweep reaches the estimators, not only the guards.
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace joinmi
