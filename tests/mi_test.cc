// Unit tests for src/mi: histograms, entropy estimators, kNN machinery, and
// the four MI estimators (MLE, KSG, MixedKSG, DC-KSG) against analytic
// ground truths.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/math.h"
#include "src/common/random.h"
#include "src/mi/dc_ksg.h"
#include "src/mi/entropy.h"
#include "src/mi/estimator.h"
#include "src/mi/histogram.h"
#include "src/mi/knn.h"
#include "src/mi/ksg.h"
#include "src/mi/mixed_ksg.h"
#include "src/mi/mle.h"

namespace joinmi {
namespace {

std::vector<Value> ToValues(const std::vector<int>& xs) {
  std::vector<Value> out;
  for (int x : xs) out.emplace_back(int64_t{x});
  return out;
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, ValueCoderDenseFirstAppearance) {
  ValueCoder coder;
  EXPECT_EQ(coder.Encode(Value("b")), 0u);
  EXPECT_EQ(coder.Encode(Value("a")), 1u);
  EXPECT_EQ(coder.Encode(Value("b")), 0u);
  EXPECT_EQ(coder.num_codes(), 2u);
  EXPECT_EQ(coder.Lookup(Value("a")), 1);
  EXPECT_EQ(coder.Lookup(Value("zzz")), -1);
}

TEST(HistogramTest, BuildHistogramCounts) {
  const Histogram hist = BuildHistogram({0, 1, 1, 2, 2, 2});
  EXPECT_EQ(hist.total, 6u);
  ASSERT_EQ(hist.num_bins(), 3u);
  EXPECT_EQ(hist.counts[0], 1u);
  EXPECT_EQ(hist.counts[1], 2u);
  EXPECT_EQ(hist.counts[2], 3u);
}

TEST(HistogramTest, JointHistogram) {
  // The plug-in estimators' joint table: a KeyCoder over packed code pairs.
  KeyCoder x_coder, y_coder, joint;
  x_coder.Reset(3);
  y_coder.Reset(3);
  joint.Reset(3);
  const std::vector<uint64_t> xs = {0, 0, 1};
  const std::vector<uint64_t> ys = {0, 0, 1};
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t cx = x_coder.Add(xs[i]);
    joint.Add((cx << 32) | y_coder.Add(ys[i]));
  }
  ASSERT_EQ(joint.size(), 2u);
  EXPECT_EQ(joint.counts()[0], 2u);
  EXPECT_EQ(joint.counts()[1], 1u);
  EXPECT_FALSE(MutualInformationMLE(ToValues({0}), ToValues({0, 1})).ok());
}

TEST(HistogramTest, KeyCoderGrowsPastItsInitialTable) {
  // Far more distinct keys than the table starts with: codes stay in
  // first-appearance order and counts survive every rehash.
  const size_t distinct = 3 * KeyCoder::kMaxInitialKeys + 7;
  KeyCoder coder;
  coder.Reset(2);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < distinct; ++i) {
      EXPECT_EQ(coder.Add(i * 0x9E3779B97F4A7C15ULL + 1), i);
    }
  }
  ASSERT_EQ(coder.size(), distinct);
  for (size_t c = 0; c < distinct; ++c) EXPECT_EQ(coder.counts()[c], 2u);
  coder.Reset(4);
  EXPECT_EQ(coder.Add(42), 0u);
  EXPECT_EQ(coder.size(), 1u);
}

// ---------------------------------------------------------------- Entropy --

TEST(EntropyTest, UniformAndDegenerate) {
  // Uniform over 4 symbols: H = ln 4.
  const Histogram uniform = BuildHistogram({0, 1, 2, 3});
  EXPECT_NEAR(EntropyMLE(uniform), std::log(4.0), 1e-12);
  // Point mass: H = 0.
  const Histogram point = BuildHistogram({0, 0, 0});
  EXPECT_NEAR(EntropyMLE(point), 0.0, 1e-12);
  EXPECT_EQ(EntropyMLE(Histogram{}), 0.0);
}

TEST(EntropyTest, PaperSectionIVBWorkedExample) {
  // Y = [0 x5, 1..95]: H = -(0.05 ln 0.05 + 95 * 0.01 ln 0.01) ~ 4.5247
  // (the paper quotes log2; in nats the value is 4.5247 * ln2... the paper
  // actually uses natural log here: 4.5247 nats).
  std::vector<uint32_t> codes;
  for (int i = 0; i < 5; ++i) codes.push_back(0);
  for (uint32_t v = 1; v <= 95; ++v) codes.push_back(v);
  const Histogram hist = BuildHistogram(codes);
  EXPECT_NEAR(EntropyMLE(hist), 4.5247, 1e-3);
}

TEST(EntropyTest, JointEntropyMLEIndependentFactorization) {
  // Independent uniform bits: H(X, Y) = ln 4 = H(X) + H(Y).
  const std::vector<uint64_t> xs = {0, 0, 1, 1};
  const std::vector<uint64_t> ys = {0, 1, 0, 1};
  KeyCoder joint;
  joint.Reset(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) joint.Add((xs[i] << 32) | ys[i]);
  Histogram cells;
  cells.counts.assign(joint.counts(), joint.counts() + joint.size());
  cells.total = xs.size();
  EXPECT_NEAR(EntropyMLE(cells), std::log(4.0), 1e-12);
  const std::vector<Value> x_values = ToValues({0, 0, 1, 1});
  const std::vector<Value> y_values = ToValues({0, 1, 0, 1});
  EXPECT_NEAR(*MutualInformationMLE(x_values, y_values), 0.0, 1e-12);
  // Miller-Madow: ln 2 + 1/8 twice minus (ln 4 + 3/8) is -1/8, clamped.
  EXPECT_EQ(*MutualInformationMillerMadow(x_values, y_values), 0.0);
  // Y = X: each term keeps its own (m - 1) / 2N, leaving ln 2 + 1/8.
  EXPECT_NEAR(*MutualInformationMillerMadow(x_values, x_values),
              std::log(2.0) + 1.0 / 8.0, 1e-12);
}

// -------------------------------------------------------------------- kNN --

TEST(SortedPoints1DTest, KthNeighborDistances) {
  SortedPoints1D points({0.0, 1.0, 3.0, 6.0});
  EXPECT_EQ(points.KthNeighborDistance(0.0, 1), 1.0);   // -> 1.0
  EXPECT_EQ(points.KthNeighborDistance(0.0, 2), 3.0);   // -> 3.0
  EXPECT_EQ(points.KthNeighborDistance(3.0, 1), 2.0);   // -> 1.0
  EXPECT_EQ(points.KthNeighborDistance(3.0, 3), 3.0);   // -> 0.0 or 6.0
}

TEST(SortedPoints1DTest, DuplicatesExcludeOneSelfCopy) {
  SortedPoints1D points({2.0, 2.0, 2.0, 5.0});
  // Excluding one copy of the query leaves two zero-distance neighbors.
  EXPECT_EQ(points.KthNeighborDistance(2.0, 1), 0.0);
  EXPECT_EQ(points.KthNeighborDistance(2.0, 2), 0.0);
  EXPECT_EQ(points.KthNeighborDistance(2.0, 3), 3.0);
}

TEST(SortedPoints1DTest, CountWithinStrictAndClosed) {
  SortedPoints1D points({0.0, 1.0, 2.0, 3.0});
  // |p - 1.5| <= 0.5: {1.0, 2.0}; query point not a member here, so no
  // self-exclusion applies.
  EXPECT_EQ(points.CountWithin(1.5, 0.5, /*strict=*/false,
                               /*exclude_self=*/false),
            2u);
  EXPECT_EQ(points.CountWithin(1.5, 0.5, /*strict=*/true,
                               /*exclude_self=*/false),
            0u);
  // Member query with self-exclusion: |p - 1| <= 1 is {0,1,2}, minus self.
  EXPECT_EQ(points.CountWithin(1.0, 1.0, /*strict=*/false), 2u);
  // Strict r=0 never counts anything.
  EXPECT_EQ(points.CountWithin(1.0, 0.0, /*strict=*/true), 0u);
}

TEST(KdTree2DTest, MatchesBruteForce) {
  Rng rng(11);
  const size_t n = 500;
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(-10, 10);
    ys[i] = rng.Uniform(-10, 10);
  }
  KdTree2D tree(xs, ys);
  auto brute_kth = [&](size_t i, int k) {
    std::vector<double> dists;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.push_back(
          std::max(std::fabs(xs[j] - xs[i]), std::fabs(ys[j] - ys[i])));
    }
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    return dists[static_cast<size_t>(k - 1)];
  };
  auto brute_count = [&](size_t i, double r, bool strict) {
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d =
          std::max(std::fabs(xs[j] - xs[i]), std::fabs(ys[j] - ys[i]));
      if (strict ? d < r : d <= r) ++count;
    }
    return count;
  };
  for (size_t i = 0; i < 50; ++i) {
    for (int k : {1, 3, 7}) {
      ASSERT_DOUBLE_EQ(tree.KthNeighborDistance(i, k), brute_kth(i, k))
          << "i=" << i << " k=" << k;
    }
    const double r = tree.KthNeighborDistance(i, 3);
    ASSERT_EQ(tree.CountWithin(i, r, true), brute_count(i, r, true));
    ASSERT_EQ(tree.CountWithin(i, r, false), brute_count(i, r, false));
  }
}

TEST(KdTree2DTest, CoincidentPoints) {
  KdTree2D tree({1.0, 1.0, 1.0, 2.0}, {5.0, 5.0, 5.0, 6.0});
  EXPECT_EQ(tree.CountCoincident(0), 2u);
  EXPECT_EQ(tree.CountCoincident(3), 0u);
  EXPECT_EQ(tree.KthNeighborDistance(0, 1), 0.0);
  EXPECT_EQ(tree.KthNeighborDistance(0, 2), 0.0);
  EXPECT_EQ(tree.KthNeighborDistance(0, 3), 1.0);
}

// ------------------------------------------------------------------- MLE --

TEST(MleMITest, IdenticalVariablesGiveEntropy) {
  // I(X, X) = H(X). Uniform over 4 symbols repeated many times so the MLE
  // bias is negligible.
  std::vector<int> xs;
  for (int rep = 0; rep < 100; ++rep) {
    for (int v = 0; v < 4; ++v) xs.push_back(v);
  }
  auto mi = MutualInformationMLE(ToValues(xs), ToValues(xs));
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, std::log(4.0), 1e-9);
}

TEST(MleMITest, IndependentVariablesNearZero) {
  Rng rng(13);
  std::vector<int> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(4)));
    ys.push_back(static_cast<int>(rng.NextBounded(4)));
  }
  auto mi = MutualInformationMLE(ToValues(xs), ToValues(ys));
  ASSERT_TRUE(mi.ok());
  // Bias ~ (m_X m_Y - m_X - m_Y + 1) / 2N ~ 9/40000.
  EXPECT_LT(*mi, 0.002);
}

TEST(MleMITest, NonNegativeAndSymmetric) {
  Rng rng(17);
  std::vector<int> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const int x = static_cast<int>(rng.NextBounded(6));
    xs.push_back(x);
    ys.push_back(rng.Bernoulli(0.7) ? x : static_cast<int>(rng.NextBounded(6)));
  }
  const double ixy = *MutualInformationMLE(ToValues(xs), ToValues(ys));
  const double iyx = *MutualInformationMLE(ToValues(ys), ToValues(xs));
  EXPECT_GE(ixy, 0.0);
  EXPECT_NEAR(ixy, iyx, 1e-9);
}

TEST(MleMITest, InvariantUnderBijection) {
  // MI is invariant under relabeling of either variable.
  Rng rng(19);
  std::vector<Value> xs, ys, xs_relabel;
  for (int i = 0; i < 400; ++i) {
    const int x = static_cast<int>(rng.NextBounded(5));
    xs.emplace_back(int64_t{x});
    xs_relabel.emplace_back("label_" + std::to_string(x * 7));
    ys.emplace_back(int64_t{(x + static_cast<int>(rng.NextBounded(2))) % 5});
  }
  EXPECT_NEAR(*MutualInformationMLE(xs, ys),
              *MutualInformationMLE(xs_relabel, ys), 1e-9);
}

TEST(MleMITest, MillerMadowReducesBiasOnIndependentData) {
  Rng rng(23);
  std::vector<int> xs, ys;
  for (int i = 0; i < 300; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(8)));
    ys.push_back(static_cast<int>(rng.NextBounded(8)));
  }
  const double mle = *MutualInformationMLE(ToValues(xs), ToValues(ys));
  const double mm = *MutualInformationMillerMadow(ToValues(xs), ToValues(ys));
  // True MI is 0; Miller–Madow should be closer (or equal after clamping).
  EXPECT_LE(mm, mle + 1e-12);
}

TEST(MleMITest, LaplaceShrinksEstimates) {
  Rng rng(29);
  std::vector<int> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(10)));
    ys.push_back(static_cast<int>(rng.NextBounded(10)));
  }
  const double raw = *MutualInformationMLE(ToValues(xs), ToValues(ys));
  const double smoothed =
      *MutualInformationLaplace(ToValues(xs), ToValues(ys), 1.0);
  EXPECT_LT(smoothed, raw);
  EXPECT_GE(smoothed, 0.0);
  EXPECT_FALSE(
      MutualInformationLaplace(ToValues(xs), ToValues(ys), -1.0).ok());
}

TEST(MleMITest, ErrorsOnBadInput) {
  EXPECT_FALSE(MutualInformationMLE({}, {}).ok());
  EXPECT_FALSE(MutualInformationMLE(ToValues({1}), ToValues({1, 2})).ok());
}

// ------------------------------------------------------------------- KSG --

TEST(KsgTest, BivariateGaussianMatchesClosedForm) {
  // I = -0.5 ln(1 - r^2) for correlated Gaussians.
  Rng rng(31);
  const double r = 0.8;
  const double true_mi = BivariateNormalMI(r);
  std::vector<double> xs, ys;
  for (int i = 0; i < 3000; ++i) {
    const double u = rng.Gaussian();
    const double v = rng.Gaussian();
    xs.push_back(u);
    ys.push_back(r * u + std::sqrt(1 - r * r) * v);
  }
  auto mi = MutualInformationKSG(xs, ys, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, true_mi, 0.1);
}

TEST(KsgTest, IndependentGaussiansNearZero) {
  Rng rng(37);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(rng.Gaussian());
    ys.push_back(rng.Gaussian());
  }
  auto mi = MutualInformationKSG(xs, ys, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_LT(*mi, 0.08);
}

TEST(KsgTest, InvariantUnderAffineTransform) {
  Rng rng(41);
  std::vector<double> xs, ys, xs_scaled, ys_shifted;
  for (int i = 0; i < 1500; ++i) {
    const double u = rng.Gaussian();
    xs.push_back(u);
    ys.push_back(0.7 * u + 0.4 * rng.Gaussian());
    xs_scaled.push_back(250.0 * u + 3.0);
    ys_shifted.push_back(-5.0 * ys.back() + 100.0);
  }
  // Exact invariance holds asymptotically; anisotropic rescaling reshapes
  // finite-sample Chebyshev balls, so allow a small finite-sample gap.
  const double base = *MutualInformationKSG(xs, ys, 3);
  const double transformed = *MutualInformationKSG(xs_scaled, ys_shifted, 3);
  EXPECT_NEAR(base, transformed, 0.1);
}

TEST(KsgTest, ErrorsOnBadInput) {
  EXPECT_FALSE(MutualInformationKSG({1, 2}, {1}, 1).ok());
  EXPECT_FALSE(MutualInformationKSG({1, 2, 3}, {1, 2, 3}, 5).ok());
  EXPECT_FALSE(MutualInformationKSG({1, 2, 3}, {1, 2, 3}, 0).ok());
}

// -------------------------------------------------------------- MixedKSG --

TEST(MixedKsgTest, HandlesPurelyDiscreteData) {
  // X = Y uniform over {0..3} with many repeats: I = H = ln 4.
  Rng rng(43);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(static_cast<double>(rng.NextBounded(4)));
  }
  auto mi = MutualInformationMixedKSG(xs, xs, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, std::log(4.0), 0.05);
}

TEST(MixedKsgTest, CDUnifMatchesClosedForm) {
  // The Gao et al. benchmark this estimator was designed for.
  Rng rng(47);
  const uint64_t m = 5;
  std::vector<double> xs, ys;
  for (int i = 0; i < 3000; ++i) {
    const double x = static_cast<double>(rng.NextBounded(m));
    xs.push_back(x);
    ys.push_back(x + rng.Uniform(0.0, 2.0));
  }
  const double md = static_cast<double>(m);
  const double true_mi = std::log(md) - (md - 1.0) * std::log(2.0) / md;
  // MixedKSG carries a k-dependent downward bias on mixtures (its log-based
  // marginal terms versus KSG's digamma ones); with the reference default
  // k = 5 the bias is ~0.06 here and shrinks as k grows. The sketch paper
  // itself observes this estimator-specific bias (its Figures 2-4).
  auto mi = MutualInformationMixedKSG(xs, ys, 5);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, true_mi, 0.15);
  // Bias shrinks with k: k = 10 must be at least as close.
  auto mi10 = MutualInformationMixedKSG(xs, ys, 10);
  EXPECT_LE(std::fabs(*mi10 - true_mi), std::fabs(*mi - true_mi) + 0.02);
}

TEST(MixedKsgTest, IndependentMixtureNearZero) {
  Rng rng(53);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(static_cast<double>(rng.NextBounded(3)));
    ys.push_back(rng.Gaussian());
  }
  auto mi = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_LT(*mi, 0.08);
}

// ---------------------------------------------------------------- DC-KSG --

TEST(DcKsgTest, DiscreteContinuousDependence) {
  // Y | X=c ~ N(3c, 0.25): strong dependence, MI ~ H(X) = ln 3 for well-
  // separated components.
  Rng rng(59);
  std::vector<Value> xs;
  std::vector<double> ys;
  for (int i = 0; i < 3000; ++i) {
    const int c = static_cast<int>(rng.NextBounded(3));
    xs.emplace_back("class_" + std::to_string(c));
    ys.push_back(rng.Gaussian(3.0 * c, 0.25));
  }
  auto mi = MutualInformationDCKSG(xs, ys, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, std::log(3.0), 0.12);
}

TEST(DcKsgTest, IndependentNearZero) {
  Rng rng(61);
  std::vector<Value> xs;
  std::vector<double> ys;
  for (int i = 0; i < 2000; ++i) {
    xs.emplace_back(int64_t{static_cast<int64_t>(rng.NextBounded(4))});
    ys.push_back(rng.Gaussian());
  }
  auto mi = MutualInformationDCKSG(xs, ys, 3);
  ASSERT_TRUE(mi.ok());
  EXPECT_LT(*mi, 0.08);
}

TEST(DcKsgTest, SmallClassesClampK) {
  // One class with 2 members, another with the rest; k is clamped to
  // N_class - 1 = 1 for the small class rather than failing.
  Rng rng(67);
  std::vector<Value> xs = {Value("rare"), Value("rare")};
  std::vector<double> ys = {0.0, 0.1};
  for (int i = 0; i < 100; ++i) {
    xs.emplace_back("common");
    ys.push_back(rng.Gaussian(5.0, 1.0));
  }
  EXPECT_TRUE(MutualInformationDCKSG(xs, ys, 3).ok());
}

TEST(DcKsgTest, AllUniqueClassesFail) {
  // OutOfRange, the status of a sample too small to estimate, so a search
  // skips such a candidate instead of counting an error.
  std::vector<Value> xs = {Value("a"), Value("b"), Value("c")};
  std::vector<double> ys = {1.0, 2.0, 3.0};
  auto mi = MutualInformationDCKSG(xs, ys, 3);
  ASSERT_FALSE(mi.ok());
  EXPECT_TRUE(mi.status().IsOutOfRange()) << mi.status();
}

// ---------------------------------------------------------- Estimator API --

TEST(EstimatorTest, KindStringsRoundTrip) {
  for (MIEstimatorKind kind :
       {MIEstimatorKind::kMLE, MIEstimatorKind::kMillerMadow,
        MIEstimatorKind::kLaplace, MIEstimatorKind::kKSG,
        MIEstimatorKind::kMixedKSG, MIEstimatorKind::kDCKSG}) {
    auto parsed = MIEstimatorKindFromString(MIEstimatorKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(MIEstimatorKindFromString("nope").ok());
}

TEST(EstimatorTest, ChooseEstimatorPolicy) {
  EXPECT_EQ(*ChooseEstimator(DataType::kString, DataType::kString),
            MIEstimatorKind::kMLE);
  EXPECT_EQ(*ChooseEstimator(DataType::kDouble, DataType::kInt64),
            MIEstimatorKind::kMixedKSG);
  EXPECT_EQ(*ChooseEstimator(DataType::kString, DataType::kDouble),
            MIEstimatorKind::kDCKSG);
  EXPECT_EQ(*ChooseEstimator(DataType::kInt64, DataType::kString),
            MIEstimatorKind::kDCKSG);
  EXPECT_FALSE(ChooseEstimator(DataType::kNull, DataType::kInt64).ok());
}

TEST(EstimatorTest, AutoDispatchMatchesManual) {
  Rng rng(71);
  PairedSample sample;
  for (int i = 0; i < 400; ++i) {
    const int c = static_cast<int>(rng.NextBounded(3));
    sample.x.emplace_back("c" + std::to_string(c));
    sample.y.emplace_back(rng.Gaussian(2.0 * c, 0.5));
  }
  const double via_auto = *EstimateMIAuto(sample);
  const double via_kind = *EstimateMI(MIEstimatorKind::kDCKSG, sample);
  EXPECT_EQ(via_auto, via_kind);
}

TEST(EstimatorTest, RejectsNullsAndMismatchedArity) {
  PairedSample bad;
  bad.x = {Value(1.0)};
  bad.y = {Value::Null()};
  EXPECT_FALSE(EstimateMI(MIEstimatorKind::kMLE, bad).ok());
  PairedSample mismatched;
  mismatched.x = {Value(1.0), Value(2.0)};
  mismatched.y = {Value(1.0)};
  EXPECT_FALSE(EstimateMI(MIEstimatorKind::kMLE, mismatched).ok());
  EXPECT_FALSE(EstimateMI(MIEstimatorKind::kMLE, PairedSample{}).ok());
}

TEST(EstimatorTest, EstimatorsRefuseExactlyBelowMinimumSamples) {
  // DC-KSG gets one repeated class, so its only refusal is the size.
  for (MIEstimatorKind kind :
       {MIEstimatorKind::kMLE, MIEstimatorKind::kKSG,
        MIEstimatorKind::kMixedKSG, MIEstimatorKind::kDCKSG}) {
    for (int k : {1, 3}) {
      MIOptions options;
      options.k = k;
      const size_t fewest = MinimumSamples(kind, k);
      for (size_t n : {fewest - 1, fewest}) {
        if (n == 0) continue;
        PairedSample sample;
        for (size_t i = 0; i < n; ++i) {
          sample.x.push_back(kind == MIEstimatorKind::kDCKSG
                                 ? Value("a")
                                 : Value(static_cast<double>(i)));
          sample.y.emplace_back(static_cast<double>(i * i) + 0.5);
        }
        const Result<double> mi = EstimateMI(kind, sample, options);
        if (n < fewest) {
          EXPECT_TRUE(mi.status().IsInvalidArgument())
              << MIEstimatorKindToString(kind) << " k=" << k << " n=" << n;
        } else {
          EXPECT_TRUE(mi.ok()) << MIEstimatorKindToString(kind) << " k=" << k
                               << " n=" << n << ": " << mi.status().ToString();
        }
      }
    }
  }
}

TEST(EstimatorTest, KsgRejectsStringData) {
  PairedSample sample;
  sample.x = {Value("a"), Value("b"), Value("c"), Value("d"), Value("e")};
  sample.y = {Value(1.0), Value(2.0), Value(3.0), Value(4.0), Value(5.0)};
  EXPECT_FALSE(EstimateMI(MIEstimatorKind::kKSG, sample).ok());
  EXPECT_TRUE(EstimateMI(MIEstimatorKind::kDCKSG, sample).ok() ||
              !EstimateMI(MIEstimatorKind::kDCKSG, sample).ok());
}

TEST(EstimatorTest, PerturbationBreaksTiesDeterministically) {
  const std::vector<double> xs = {1, 1, 2, 2, 3, 3};
  const auto a = PerturbForTies(xs, 1e-9, 99);
  const auto b = PerturbForTies(xs, 1e-9, 99);
  const auto c = PerturbForTies(xs, 1e-9, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(a[i], xs[i], 1e-7);
  }
}

TEST(EstimatorTest, DcKsgPicksNumericSideAutomatically) {
  // Numeric on X, string on Y: DC-KSG must treat Y as the discrete side.
  Rng rng(73);
  PairedSample sample;
  for (int i = 0; i < 300; ++i) {
    const int c = static_cast<int>(rng.NextBounded(3));
    sample.x.emplace_back(rng.Gaussian(2.0 * c, 0.4));
    sample.y.emplace_back("g" + std::to_string(c));
  }
  auto mi = EstimateMI(MIEstimatorKind::kDCKSG, sample);
  ASSERT_TRUE(mi.ok());
  EXPECT_GT(*mi, 0.5);
}

}  // namespace
}  // namespace joinmi
