// Property-based tests: parameterized sweeps over estimator and sketch
// invariants that must hold for every configuration, not just hand-picked
// examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <tuple>

#include "src/common/random.h"
#include "src/core/join_mi.h"
#include "src/join/left_join.h"
#include "src/mi/entropy.h"
#include "src/mi/estimator.h"
#include "src/sketch/builder.h"
#include "src/sketch/sketch_join.h"
#include "src/synthetic/pipeline.h"

namespace joinmi {
namespace {

/// gtest parameter names must be alphanumeric; strip the '-' in "DC-KSG".
std::string SafeName(std::string s) {
  s.erase(std::remove_if(
              s.begin(), s.end(),
              [](char c) {
                return !std::isalnum(static_cast<unsigned char>(c));
              }),
          s.end());
  return s;
}

// ------------------------------------------------ Entropy bound sweeps ----

class EntropyBoundsTest
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(EntropyBoundsTest, MleWithinZeroAndLogSupport) {
  const auto [support, seed] = GetParam();
  Rng rng(seed);
  std::vector<uint32_t> codes;
  for (int i = 0; i < 500; ++i) {
    codes.push_back(static_cast<uint32_t>(rng.NextBounded(
        static_cast<uint64_t>(support))));
  }
  const Histogram hist = BuildHistogram(codes);
  const double h = EntropyMLE(hist);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, std::log(static_cast<double>(support)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SupportSweep, EntropyBoundsTest,
    testing::Combine(testing::Values(2, 5, 17, 64, 256),
                     testing::Values(1u, 2u, 3u)));

// -------------------------------------------- Estimator invariants --------

class MIInvariantsTest
    : public testing::TestWithParam<std::tuple<MIEstimatorKind, uint64_t>> {};

TEST_P(MIInvariantsTest, NonNegativeAndSymmetricOnNumericData) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  PairedSample sample;
  const bool discrete_x = kind == MIEstimatorKind::kDCKSG;
  for (int i = 0; i < 600; ++i) {
    // DC-KSG needs a genuinely discrete side; give it quantized X. The
    // other estimators get a continuous mixture.
    const double x = discrete_x
                         ? static_cast<double>(rng.NextBounded(6))
                         : rng.Gaussian();
    sample.x.emplace_back(x);
    sample.y.emplace_back(0.5 * x + rng.Gaussian() +
                          (rng.Bernoulli(0.3) ? 1.0 : 0.0));
  }
  MIOptions options;
  options.k = 3;
  auto ixy = EstimateMI(kind, sample, options);
  ASSERT_TRUE(ixy.ok()) << MIEstimatorKindToString(kind);
  EXPECT_GE(*ixy, 0.0);
  // Symmetry: plug-ins are exactly symmetric, continuous KSG variants up to
  // finite-sample effects. DC-KSG is excluded: with both sides numeric it
  // always treats X as the discrete one, so swapping hands it a continuous
  // "discrete" side — a structural asymmetry, not a numeric one.
  if (kind == MIEstimatorKind::kDCKSG) return;
  PairedSample swapped;
  swapped.x = sample.y;
  swapped.y = sample.x;
  auto iyx = EstimateMI(kind, swapped, options);
  ASSERT_TRUE(iyx.ok());
  if (kind == MIEstimatorKind::kMLE || kind == MIEstimatorKind::kMillerMadow ||
      kind == MIEstimatorKind::kLaplace) {
    EXPECT_NEAR(*ixy, *iyx, 1e-9);
  } else {
    EXPECT_NEAR(*ixy, *iyx, 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EstimatorSweep, MIInvariantsTest,
    testing::Combine(testing::Values(MIEstimatorKind::kMLE,
                                     MIEstimatorKind::kMillerMadow,
                                     MIEstimatorKind::kLaplace,
                                     MIEstimatorKind::kKSG,
                                     MIEstimatorKind::kMixedKSG,
                                     MIEstimatorKind::kDCKSG),
                     testing::Values(101u, 202u, 303u)),
    [](const testing::TestParamInfo<std::tuple<MIEstimatorKind, uint64_t>>&
           info) {
      return SafeName(MIEstimatorKindToString(std::get<0>(info.param))) +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// Independence: every estimator must report near-zero MI for independent
// variables, across seeds.
class IndependenceTest
    : public testing::TestWithParam<std::tuple<MIEstimatorKind, uint64_t>> {};

TEST_P(IndependenceTest, NearZeroOnIndependentData) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  PairedSample sample;
  for (int i = 0; i < 3000; ++i) {
    if (kind == MIEstimatorKind::kMLE ||
        kind == MIEstimatorKind::kMillerMadow ||
        kind == MIEstimatorKind::kLaplace) {
      sample.x.emplace_back(static_cast<int64_t>(rng.NextBounded(5)));
      sample.y.emplace_back(static_cast<int64_t>(rng.NextBounded(5)));
    } else if (kind == MIEstimatorKind::kDCKSG) {
      sample.x.emplace_back(static_cast<int64_t>(rng.NextBounded(5)));
      sample.y.emplace_back(rng.Gaussian());
    } else {
      sample.x.emplace_back(rng.Gaussian());
      sample.y.emplace_back(rng.Gaussian());
    }
  }
  auto mi = EstimateMI(kind, sample);
  ASSERT_TRUE(mi.ok());
  EXPECT_LT(*mi, 0.05) << MIEstimatorKindToString(kind);
}

INSTANTIATE_TEST_SUITE_P(
    EstimatorSweep, IndependenceTest,
    testing::Combine(testing::Values(MIEstimatorKind::kMLE,
                                     MIEstimatorKind::kMillerMadow,
                                     MIEstimatorKind::kLaplace,
                                     MIEstimatorKind::kKSG,
                                     MIEstimatorKind::kMixedKSG,
                                     MIEstimatorKind::kDCKSG),
                     testing::Values(11u, 12u)),
    [](const testing::TestParamInfo<std::tuple<MIEstimatorKind, uint64_t>>&
           info) {
      return SafeName(MIEstimatorKindToString(std::get<0>(info.param))) +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ Sketch size sweep -------

class SketchSizeBoundTest
    : public testing::TestWithParam<
          std::tuple<SketchMethod, size_t, double>> {};

TEST_P(SketchSizeBoundTest, HardBoundHoldsUnderSkew) {
  const auto [method, capacity, zipf_s] = GetParam();
  Rng rng(7);
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back("k" + std::to_string(rng.Zipf(500, zipf_s)));
    values.push_back(static_cast<int64_t>(i));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeInt64(values)}});
  SketchOptions options;
  options.capacity = capacity;
  auto builder = MakeSketchBuilder(method, options);
  auto sketch = *builder->SketchTrain(*(*train->GetColumn("K")),
                                      *(*train->GetColumn("Y")));
  const size_t bound =
      (method == SketchMethod::kLv2sk || method == SketchMethod::kPrisk)
          ? 2 * capacity
          : capacity;
  EXPECT_LE(sketch.size(), bound);
  // Candidate sketches are always bounded by n.
  auto cand_sketch = *builder->SketchCandidate(*(*train->GetColumn("K")),
                                               *(*train->GetColumn("Y")),
                                               AggKind::kAvg);
  EXPECT_LE(cand_sketch.size(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    MethodCapacitySkew, SketchSizeBoundTest,
    testing::Combine(testing::Values(SketchMethod::kTupsk,
                                     SketchMethod::kLv2sk,
                                     SketchMethod::kPrisk,
                                     SketchMethod::kIndsk, SketchMethod::kCsk),
                     testing::Values(16u, 128u, 1024u),
                     testing::Values(0.5, 1.2)),
    [](const testing::TestParamInfo<std::tuple<SketchMethod, size_t, double>>&
           info) {
      return std::string(SketchMethodToString(std::get<0>(info.param))) +
             "_n" + std::to_string(std::get<1>(info.param)) + "_z" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
    });

// ----------------------------------- Sketch join subset-of-full-join ------

class SketchJoinSubsetTest
    : public testing::TestWithParam<std::tuple<SketchMethod, uint64_t>> {};

TEST_P(SketchJoinSubsetTest, EveryJoinedPairExistsInFullJoin) {
  const auto [method, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 800; ++i) {
    const int k = static_cast<int>(rng.NextBounded(120));
    keys.push_back("k" + std::to_string(k));
    targets.push_back(static_cast<int64_t>(rng.NextBounded(30)));
  }
  std::vector<std::string> cand_keys;
  std::vector<int64_t> cand_values;
  for (int i = 0; i < 600; ++i) {
    const int k = static_cast<int>(rng.NextBounded(150));
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeInt64(targets)}});
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});
  SketchOptions options;
  options.capacity = 64;
  auto builder = MakeSketchBuilder(method, options);
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kAvg);
  auto joined = *JoinSketches(s_train, s_cand);

  // Ground truth: (Y target, AVG feature) pair multiset from the real join.
  auto full = *LeftJoinAggregate(*train, "K", "Y", *cand, "K", "Z",
                                 {AggKind::kAvg, true, "X"});
  std::multiset<std::pair<double, int64_t>> full_pairs;
  auto x_col = *full.table->GetColumn("X");
  auto y_col = *full.table->GetColumn("Y");
  for (size_t r = 0; r < full.table->num_rows(); ++r) {
    full_pairs.emplace(x_col->DoubleAt(r), y_col->Int64At(r));
  }
  // CSK replaces aggregation by first-value, so only the (key-match) part
  // of the property holds there; check pair membership for the others.
  if (method != SketchMethod::kCsk) {
    for (size_t i = 0; i < joined.sample.size(); ++i) {
      const auto pair = std::make_pair(*joined.sample.x[i].AsDouble(),
                                       joined.sample.y[i].int64());
      const auto it = full_pairs.find(pair);
      ASSERT_NE(it, full_pairs.end())
          << SketchMethodToString(method) << " produced a pair (" << pair.first
          << ", " << pair.second << ") absent from the full join";
      full_pairs.erase(it);  // respect multiplicity
    }
  }
  // For every method, the join size cannot exceed the train sketch size.
  EXPECT_LE(joined.join_size, s_train.size());
}

INSTANTIATE_TEST_SUITE_P(
    MethodSeed, SketchJoinSubsetTest,
    testing::Combine(testing::Values(SketchMethod::kTupsk,
                                     SketchMethod::kLv2sk,
                                     SketchMethod::kPrisk,
                                     SketchMethod::kIndsk, SketchMethod::kCsk),
                     testing::Values(1u, 2u, 3u)),
    [](const testing::TestParamInfo<std::tuple<SketchMethod, uint64_t>>&
           info) {
      return std::string(SketchMethodToString(std::get<0>(info.param))) +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------ TUPSK accuracy improves with n ------

TEST(ConvergenceTest, TupskErrorShrinksWithSketchSize) {
  // Paper Section IV-B "Accuracy Guarantees": approximation error decreases
  // roughly as 1/sqrt(join size). Check the monotone trend over octaves,
  // averaged across seeds.
  const std::vector<size_t> capacities = {64, 256, 1024};
  std::vector<double> mean_abs_err(capacities.size(), 0.0);
  constexpr int kSeeds = 5;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SyntheticSpec spec;
    spec.distribution = SyntheticDistribution::kTrinomial;
    spec.m = 64;
    spec.num_rows = 20000;
    spec.key_scheme = KeyScheme::kKeyInd;
    spec.seed = static_cast<uint64_t>(seed) * 1000;
    auto dataset = *GenerateSyntheticDataset(spec);
    for (size_t ci = 0; ci < capacities.size(); ++ci) {
      SketchOptions options;
      options.capacity = capacities[ci];
      auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
      auto train = dataset.tables.train;
      auto cand = dataset.tables.cand;
      auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                           *(*train->GetColumn("Y")));
      auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                              *(*cand->GetColumn("Z")),
                                              AggKind::kFirst);
      auto result =
          *EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE, {}, 1);
      mean_abs_err[ci] += std::fabs(result.mi - dataset.true_mi) / kSeeds;
    }
  }
  // Larger sketches must be at least as accurate (with slack for noise).
  EXPECT_LT(mean_abs_err[2], mean_abs_err[0]);
  EXPECT_LT(mean_abs_err[1], mean_abs_err[0] + 0.05);
  EXPECT_LT(mean_abs_err[2], mean_abs_err[1] + 0.05);
}

// ------------------------------------------- Aggregation sensitivity ------

class AggregationSweepTest : public testing::TestWithParam<AggKind> {};

TEST_P(AggregationSweepTest, FullJoinAndSketchAgreeOnAggregatedFeatures) {
  // For every aggregation function, the sketch estimate must approximate
  // the full-join estimate computed with the same AGG.
  Rng rng(97);
  std::vector<std::string> keys, cand_keys;
  std::vector<int64_t> targets, cand_values;
  for (int i = 0; i < 4000; ++i) {
    const int k = static_cast<int>(rng.NextBounded(250));
    keys.push_back("k" + std::to_string(k));
    targets.push_back(k % 6);
  }
  for (int i = 0; i < 2000; ++i) {
    const int k = static_cast<int>(rng.NextBounded(250));
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back((k % 6) * 10 +
                          static_cast<int64_t>(rng.NextBounded(5)));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeInt64(targets)}});
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});
  JoinMIConfig config;
  config.sketch_capacity = 1024;
  config.aggregation = GetParam();
  config.estimator = MIEstimatorKind::kMLE;
  const JoinMIQuerySpec spec{"K", "Y", "K", "Z"};
  auto full = *FullJoinMI(*train, *cand, spec, config);
  auto sketched = *SketchJoinMI(*train, *cand, spec, config);
  EXPECT_NEAR(sketched.mi, full.mi, 0.45)
      << "agg=" << AggKindToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AggSweep, AggregationSweepTest,
                         testing::Values(AggKind::kAvg, AggKind::kSum,
                                         AggKind::kMin, AggKind::kMax,
                                         AggKind::kCount, AggKind::kMode,
                                         AggKind::kMedian, AggKind::kFirst),
                         [](const testing::TestParamInfo<AggKind>& info) {
                           return AggKindToString(info.param);
                         });

}  // namespace
}  // namespace joinmi
