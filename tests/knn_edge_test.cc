// Edge-case and stress tests for the kNN machinery (SortedPoints1D and
// KdTree2D) beyond the core correctness checks in mi_test.cc: degenerate
// geometries, duplicate-heavy data, leaf-boundary sizes, and randomized
// brute-force differential sweeps. Also the oracle tests of the
// estimators' small-sample kernels: brute-force KSG / MixedKSG / DC-KSG
// against the SortedPoints1D / KdTree2D path bit for bit, and the
// plug-in estimators against a std::map reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "src/common/random.h"
#include "src/mi/dc_ksg.h"
#include "src/mi/estimator.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/knn.h"
#include "src/mi/ksg.h"
#include "src/mi/mixed_ksg.h"
#include "src/mi/mle.h"

namespace joinmi {
namespace {

// ------------------------------------------------------- SortedPoints1D --

TEST(SortedPoints1DEdgeTest, TwoPoints) {
  SortedPoints1D points({1.0, 4.0});
  EXPECT_EQ(points.KthNeighborDistance(1.0, 1), 3.0);
  EXPECT_EQ(points.KthNeighborDistance(4.0, 1), 3.0);
}

TEST(SortedPoints1DEdgeTest, AllIdentical) {
  SortedPoints1D points(std::vector<double>(50, 2.5));
  for (int k = 1; k < 50; ++k) {
    ASSERT_EQ(points.KthNeighborDistance(2.5, k), 0.0) << k;
  }
  // Closed count includes every copy; strict r=0 counts none.
  EXPECT_EQ(points.CountWithin(2.5, 0.0, /*strict=*/false,
                               /*exclude_self=*/false),
            50u);
  EXPECT_EQ(points.CountWithin(2.5, 0.0, /*strict=*/true,
                               /*exclude_self=*/false),
            0u);
}

TEST(SortedPoints1DEdgeTest, QueryAtExtremes) {
  SortedPoints1D points({0.0, 1.0, 2.0, 3.0, 4.0});
  // Leftmost point: all neighbors to the right.
  EXPECT_EQ(points.KthNeighborDistance(0.0, 4), 4.0);
  // Rightmost point: all neighbors to the left.
  EXPECT_EQ(points.KthNeighborDistance(4.0, 4), 4.0);
}

TEST(SortedPoints1DEdgeTest, NegativeAndMixedSigns) {
  SortedPoints1D points({-5.0, -1.0, 0.0, 3.0});
  EXPECT_EQ(points.KthNeighborDistance(-1.0, 1), 1.0);   // -> 0.0
  EXPECT_EQ(points.KthNeighborDistance(-1.0, 2), 4.0);   // -> -5.0 or 3.0
  EXPECT_EQ(points.CountWithin(0.0, 4.0, /*strict=*/false), 2u);
}

TEST(SortedPoints1DEdgeTest, BruteForceDifferentialSweep) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    // Mixed continuous + heavily tied data.
    std::vector<double> data;
    const size_t n = 20 + rng.NextBounded(200);
    for (size_t i = 0; i < n; ++i) {
      data.push_back(rng.Bernoulli(0.4)
                         ? static_cast<double>(rng.NextBounded(5))
                         : rng.Uniform(-3.0, 8.0));
    }
    SortedPoints1D points(data);
    for (int probe = 0; probe < 10; ++probe) {
      const double x = data[rng.NextBounded(data.size())];
      const int k = 1 + static_cast<int>(rng.NextBounded(
                            std::min<size_t>(8, data.size() - 1)));
      // Brute force: sorted |d| excluding one copy of x.
      std::vector<double> dists;
      bool excluded_self = false;
      for (double p : data) {
        if (!excluded_self && p == x) {
          excluded_self = true;
          continue;
        }
        dists.push_back(std::fabs(p - x));
      }
      std::sort(dists.begin(), dists.end());
      ASSERT_DOUBLE_EQ(points.KthNeighborDistance(x, k),
                       dists[static_cast<size_t>(k - 1)])
          << "trial " << trial << " k " << k;
      // Range counts, both strictness modes, self included.
      const double r = dists[static_cast<size_t>(k - 1)];
      size_t closed = 0, open = 0;
      for (double p : data) {
        const double d = std::fabs(p - x);
        if (d <= r) ++closed;
        if (d < r) ++open;
      }
      ASSERT_EQ(points.CountWithin(x, r, /*strict=*/false,
                                   /*exclude_self=*/false),
                closed);
      ASSERT_EQ(points.CountWithin(x, r, /*strict=*/true,
                                   /*exclude_self=*/false),
                open);
    }
  }
}

// ------------------------------------------------------------- KdTree2D --

TEST(KdTree2DEdgeTest, SizesAroundLeafBoundary) {
  // The tree switches from a single leaf to internal nodes at 16 points;
  // exercise sizes around that boundary against brute force.
  Rng rng(7);
  for (size_t n : {2u, 15u, 16u, 17u, 33u, 64u}) {
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.Uniform(-1, 1);
      ys[i] = rng.Uniform(-1, 1);
    }
    KdTree2D tree(xs, ys);
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        best = std::min(best, std::max(std::fabs(xs[j] - xs[i]),
                                       std::fabs(ys[j] - ys[i])));
      }
      ASSERT_DOUBLE_EQ(tree.KthNeighborDistance(i, 1), best)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KdTree2DEdgeTest, CollinearPoints) {
  // All points on a line stress one split axis.
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(0.0);
  }
  KdTree2D tree(xs, ys);
  EXPECT_EQ(tree.KthNeighborDistance(50, 1), 1.0);
  EXPECT_EQ(tree.KthNeighborDistance(50, 4), 2.0);
  EXPECT_EQ(tree.KthNeighborDistance(0, 3), 3.0);
  EXPECT_EQ(tree.CountWithin(50, 2.0, /*strict=*/false), 4u);
}

TEST(KdTree2DEdgeTest, ManyCoincidentClusters) {
  // 10 clusters of 30 identical points each.
  std::vector<double> xs, ys;
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 30; ++i) {
      xs.push_back(static_cast<double>(c) * 5.0);
      ys.push_back(static_cast<double>(c) * -3.0);
    }
  }
  KdTree2D tree(xs, ys);
  for (size_t i : {0u, 31u, 299u}) {
    EXPECT_EQ(tree.CountCoincident(i), 29u) << i;
    EXPECT_EQ(tree.KthNeighborDistance(i, 29), 0.0);
    EXPECT_EQ(tree.KthNeighborDistance(i, 30), 5.0);
  }
}

TEST(KdTree2DEdgeTest, RandomizedDifferentialWithTies) {
  Rng rng(31);
  const size_t n = 400;
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    // Quantized coordinates: heavy Chebyshev ties.
    xs[i] = static_cast<double>(rng.NextBounded(12));
    ys[i] = static_cast<double>(rng.NextBounded(12));
  }
  KdTree2D tree(xs, ys);
  for (size_t probe = 0; probe < 60; ++probe) {
    const size_t i = rng.NextBounded(n);
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    std::vector<double> dists;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.push_back(
          std::max(std::fabs(xs[j] - xs[i]), std::fabs(ys[j] - ys[i])));
    }
    std::sort(dists.begin(), dists.end());
    const double expected = dists[static_cast<size_t>(k - 1)];
    ASSERT_DOUBLE_EQ(tree.KthNeighborDistance(i, k), expected);
    size_t open = 0, closed = 0;
    for (double d : dists) {
      if (d < expected) ++open;
      if (d <= expected) ++closed;
    }
    ASSERT_EQ(tree.CountWithin(i, expected, /*strict=*/true), open);
    ASSERT_EQ(tree.CountWithin(i, expected, /*strict=*/false), closed);
  }
}

// -------------------------------------------- KSG / MixedKSG with ties --
//
// Ties are the classic KSG failure mode: duplicate points give a zero
// k-th-neighbor distance, which breaks the continuous-marginal assumption
// KSG is derived under. MixedKSG handles them by switching to coincident
// counts; KSG must at least stay finite and well-defined so the estimator
// facade can run on join-derived (heavily repeated) features.

TEST(MixedKsgTiesTest, FullyDiscreteDependenceMatchesPlugIn) {
  // 40 copies each of (0,0), (1,1), (2,2): every point is duplicated, every
  // neighbor distance is tied at 0. MixedKSG degenerates to the plug-in
  // estimator, so the estimate must be ~log 3 like MLE's.
  std::vector<double> xs, ys;
  std::vector<Value> vx, vy;
  for (int v = 0; v < 3; ++v) {
    for (int copy = 0; copy < 40; ++copy) {
      xs.push_back(static_cast<double>(v));
      ys.push_back(static_cast<double>(v));
      vx.emplace_back(static_cast<int64_t>(v));
      vy.emplace_back(static_cast<int64_t>(v));
    }
  }
  auto mixed = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  auto mle = MutualInformationMLE(vx, vy);
  ASSERT_TRUE(mle.ok());
  EXPECT_NEAR(*mixed, *mle, 0.05);
  EXPECT_NEAR(*mixed, std::log(3.0), 0.05);
}

TEST(MixedKsgTiesTest, FullyDiscreteIndependenceIsNearZero) {
  // x and y cycle with coprime periods, so they are independent and every
  // (x, y) cell is hit equally often — all duplicates, zero MI.
  std::vector<double> xs, ys;
  for (int i = 0; i < 300; ++i) {
    xs.push_back(static_cast<double>(i % 2));
    ys.push_back(static_cast<double>(i % 3));
  }
  auto mixed = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_NEAR(*mixed, 0.0, 0.05);
}

TEST(MixedKsgTiesTest, ConstantVariableGivesZeroMI) {
  Rng rng(17);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(1.5);  // degenerate: a single duplicated value
    ys.push_back(rng.Gaussian());
  }
  auto mixed = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_NEAR(*mixed, 0.0, 1e-9);
}

TEST(MixedKsgTiesTest, MixtureOfContinuousAndDuplicatedPoints) {
  // Half the mass sits on exact duplicates of (0, 0), half is continuous
  // and dependent (y == x): a discrete-continuous mixture in both
  // coordinates. The estimate must be finite, non-negative (up to
  // estimator noise), and detect strong dependence.
  Rng rng(29);
  std::vector<double> xs, ys;
  for (int i = 0; i < 150; ++i) {
    xs.push_back(0.0);
    ys.push_back(0.0);
  }
  for (int i = 0; i < 150; ++i) {
    const double u = rng.Uniform(1.0, 2.0);
    xs.push_back(u);
    ys.push_back(u);
  }
  auto mixed = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_TRUE(std::isfinite(*mixed));
  EXPECT_GT(*mixed, 0.3);
}

TEST(KsgTiesTest, DuplicatePointsCollapseWithoutPerturbation) {
  // Quantized data tie every k-th-neighbor distance at 0, so the marginal
  // counts vanish and KSG collapses to the data-independent constant
  // psi(k) + psi(N): dependent and independent inputs become
  // indistinguishable. This is the classic KSG tie failure the paper works
  // around; the perturbation device (Section V-A) must restore the
  // dependent > independent ordering.
  Rng rng(55);
  std::vector<double> xs_dep, ys_dep, xs_ind, ys_ind;
  for (int i = 0; i < 400; ++i) {
    const double q = static_cast<double>(rng.NextBounded(6));
    xs_dep.push_back(q);
    ys_dep.push_back(q);
    xs_ind.push_back(static_cast<double>(rng.NextBounded(6)));
    ys_ind.push_back(static_cast<double>(rng.NextBounded(6)));
  }
  auto dep = MutualInformationKSG(xs_dep, ys_dep, 3);
  auto ind = MutualInformationKSG(xs_ind, ys_ind, 3);
  ASSERT_TRUE(dep.ok()) << dep.status();
  ASSERT_TRUE(ind.ok()) << ind.status();
  EXPECT_TRUE(std::isfinite(*dep));
  EXPECT_TRUE(std::isfinite(*ind));
  // Both saturate to the same degenerate value — the failure mode itself.
  EXPECT_EQ(*dep, *ind);

  // With tie-breaking noise the ordering comes back.
  const double sigma = 1e-6;
  auto dep_p = MutualInformationKSG(PerturbForTies(xs_dep, sigma, 1),
                                    PerturbForTies(ys_dep, sigma, 2), 3);
  auto ind_p = MutualInformationKSG(PerturbForTies(xs_ind, sigma, 1),
                                    PerturbForTies(ys_ind, sigma, 2), 3);
  ASSERT_TRUE(dep_p.ok()) << dep_p.status();
  ASSERT_TRUE(ind_p.ok()) << ind_p.status();
  EXPECT_GT(*dep_p, *ind_p);
  // MixedKSG needs no perturbation to separate the two on the same data.
  auto dep_m = MutualInformationMixedKSG(xs_dep, ys_dep, 3);
  auto ind_m = MutualInformationMixedKSG(xs_ind, ys_ind, 3);
  ASSERT_TRUE(dep_m.ok());
  ASSERT_TRUE(ind_m.ok());
  EXPECT_GT(*dep_m, *ind_m);
}

TEST(KsgTiesTest, TiedDistancesOnAUniformGrid) {
  // Evenly spaced 1-D marginals: every neighbor distance is tied at a
  // multiple of the grid step in both coordinates. No crash, finite value.
  std::vector<double> xs, ys;
  for (int i = 0; i < 120; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(static_cast<double>(120 - i));
  }
  auto ksg = MutualInformationKSG(xs, ys, 4);
  ASSERT_TRUE(ksg.ok()) << ksg.status();
  EXPECT_TRUE(std::isfinite(*ksg));
  // Perfect monotone dependence: the estimate should be strongly positive.
  EXPECT_GT(*ksg, 1.0);
}

TEST(KsgTiesTest, AllPointsIdenticalIsHandled) {
  // The most degenerate input: one duplicated point. Both estimators must
  // either return a finite value or fail cleanly with a Status — never
  // crash or return NaN.
  std::vector<double> xs(50, 3.25), ys(50, -1.0);
  auto ksg = MutualInformationKSG(xs, ys, 3);
  if (ksg.ok()) {
    EXPECT_TRUE(std::isfinite(*ksg));
  }
  auto mixed = MutualInformationMixedKSG(xs, ys, 3);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_TRUE(std::isfinite(*mixed));
  EXPECT_NEAR(*mixed, 0.0, 1e-9);
}

// ------------------------------------ Small-sample kernels vs oracles --

enum class Shape {
  kRandom,
  kTieHeavy,
  kAllEqual,
  kSingletonClasses,
  kHugeX,
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRandom:
      return "random";
    case Shape::kTieHeavy:
      return "tie-heavy";
    case Shape::kAllEqual:
      return "all-equal";
    case Shape::kSingletonClasses:
      return "singleton-classes";
    case Shape::kHugeX:
      return "huge-x";
  }
  return "?";
}

struct OracleSample {
  std::vector<double> xs, ys;
  std::vector<uint64_t> classes;  // DC-KSG's discrete side
};

OracleSample MakeOracleSample(Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  OracleSample s;
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kRandom:
        s.xs.push_back(rng.Gaussian());
        s.ys.push_back(s.xs.back() + rng.Gaussian());
        s.classes.push_back(rng.NextBounded(4));
        break;
      case Shape::kTieHeavy:
        s.xs.push_back(static_cast<double>(rng.NextBounded(3)));
        s.ys.push_back(static_cast<double>(rng.NextBounded(3)));
        s.classes.push_back(rng.NextBounded(3));
        break;
      case Shape::kAllEqual:
        s.xs.push_back(2.5);
        s.ys.push_back(-1.0);
        s.classes.push_back(7);
        break;
      case Shape::kSingletonClasses:
        // Odd samples each own a class (dropped by DC-KSG); even ones share
        // class 0.
        s.xs.push_back(rng.Gaussian());
        s.ys.push_back(rng.Uniform(0.0, 4.0));
        s.classes.push_back(i % 2 == 0 ? 0 : 1000 + i);
        break;
      case Shape::kHugeX:
        // x near 1e17, where doubles are 16 apart: a radius below 8 set by
        // y leaves x - r == x + r == x, an empty open interval even
        // though r > 0.
        s.xs.push_back(1e17 + 16.0 * static_cast<double>(rng.NextBounded(3)));
        s.ys.push_back(rng.Uniform(0.0, 1.0));
        s.classes.push_back(rng.NextBounded(3));
        break;
    }
  }
  return s;
}

// Brute force and trees agree bit for bit, errors included.
void ExpectSameBits(const Result<double>& brute, const Result<double>& trees,
                    const std::string& where) {
  ASSERT_EQ(brute.ok(), trees.ok()) << where;
  if (!brute.ok()) {
    EXPECT_EQ(brute.status().ToString(), trees.status().ToString()) << where;
    return;
  }
  uint64_t brute_bits = 0, tree_bits = 0;
  std::memcpy(&brute_bits, &*brute, sizeof(double));
  std::memcpy(&tree_bits, &*trees, sizeof(double));
  EXPECT_EQ(brute_bits, tree_bits)
      << where << ": " << *brute << " vs " << *trees;
}

using internal::BruteForceKernel;
using internal::NeighborSearch;

// The brute-force kernel's instantiations the CPU can run: the baseline
// always, and AVX2 where the CPU has it.
std::vector<const BruteForceKernel*> HostKernels() {
  std::vector<const BruteForceKernel*> kernels = {
      &internal::BaselineBruteForceKernel()};
  if (internal::Avx2BruteForceKernel() != nullptr) {
    kernels.push_back(internal::Avx2BruteForceKernel());
  }
  return kernels;
}

TEST(SmallSampleKernelTest, DispatchPicksAvx2ExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  const bool has_avx2 = __builtin_cpu_supports("avx2");
#else
  const bool has_avx2 = false;
#endif
  const BruteForceKernel& dispatched = internal::DispatchedBruteForceKernel();
  EXPECT_EQ(internal::BaselineBruteForceKernel().lanes, 2);
  if (has_avx2) {
    ASSERT_NE(internal::Avx2BruteForceKernel(), nullptr);
    EXPECT_EQ(internal::Avx2BruteForceKernel()->lanes, 4);
    EXPECT_EQ(&dispatched, internal::Avx2BruteForceKernel());
  } else {
    // Without AVX2 only the baseline is tested, which is what runs.
    EXPECT_EQ(internal::Avx2BruteForceKernel(), nullptr);
    EXPECT_EQ(&dispatched, &internal::BaselineBruteForceKernel());
  }
}

// Each instantiation's per-point results against the trees, written into
// buffers longer than n: a block's lanes past n must not write past
// out[n - 1]. The inputs hold exactly n points, so under ASan a lane that
// reads past them fails too.
TEST(SmallSampleKernelTest, BruteForceKernelMatchesTreesPerPoint) {
  const double kSentinel = -7.0;
  for (const BruteForceKernel* kernel : HostKernels()) {
    for (Shape shape : {Shape::kRandom, Shape::kTieHeavy, Shape::kAllEqual,
                        Shape::kHugeX}) {
      for (size_t n = 2; n <= 19; ++n) {
        for (int k = 1; k <= internal::kMaxBruteForceK; ++k) {
          if (static_cast<size_t>(k) >= n) break;
          OracleSample s = MakeOracleSample(shape, n, 77 * n + k);
          const std::string where =
              std::to_string(kernel->lanes) + " lanes " + ShapeName(shape) +
              " n=" + std::to_string(n) + " k=" + std::to_string(k);
          std::vector<double> radius(n + 4, kSentinel);
          std::vector<double> coincident(n + 4, kSentinel);
          kernel->joint_kth(s.xs.data(), s.ys.data(), n, k, radius.data(),
                            coincident.data());
          KdTree2D tree(s.xs, s.ys);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(radius[i], tree.KthNeighborDistance(i, k))
                << where << " i=" << i;
            EXPECT_EQ(coincident[i],
                      static_cast<double>(tree.CountCoincident(i) + 1))
                << where << " i=" << i;
          }
          for (size_t i = n; i < n + 4; ++i) {
            EXPECT_EQ(radius[i], kSentinel) << where << " wrote radius " << i;
            EXPECT_EQ(coincident[i], kSentinel) << where << " wrote " << i;
          }
          SortedPoints1D sorted_x(s.xs);
          for (bool equal_at_zero : {false, true}) {
            std::vector<double> counts(n + 4, kSentinel);
            kernel->interval_counts(s.xs.data(), n, radius.data(),
                                    equal_at_zero, counts.data());
            for (size_t i = 0; i < n; ++i) {
              const bool closed = equal_at_zero && radius[i] == 0.0;
              EXPECT_EQ(counts[i],
                        static_cast<double>(sorted_x.CountWithin(
                            s.xs[i], radius[i], /*strict=*/!closed,
                            /*exclude_self=*/false)))
                  << where << " equal_at_zero=" << equal_at_zero
                  << " i=" << i;
            }
            for (size_t i = n; i < n + 4; ++i) {
              EXPECT_EQ(counts[i], kSentinel) << where << " wrote " << i;
            }
          }
        }
      }
    }
  }
}

// One KSG-family estimator with the neighbour search forced and its brute
// force run by a given kernel instantiation, and the largest sample the
// instantiation scores by brute force under kAuto.
struct ForcedEstimator {
  const char* name;
  Result<double> (*estimate)(const OracleSample&, size_t, int,
                             NeighborSearch, const BruteForceKernel&);
  size_t BruteForceKernel::*max_points;
};

TEST(SmallSampleKernelTest, KsgFamilyBruteForceMatchesTreesBitForBit) {
  const std::vector<Shape> shapes = {Shape::kRandom, Shape::kTieHeavy,
                                     Shape::kAllEqual,
                                     Shape::kSingletonClasses, Shape::kHugeX};
  const ForcedEstimator estimators[] = {
      {"MixedKSG",
       [](const OracleSample& o, size_t m, int kk, NeighborSearch search,
          const BruteForceKernel& kernel) {
         return internal::MutualInformationMixedKSG(o.xs.data(), o.ys.data(),
                                                    m, kk, search, kernel);
       },
       &BruteForceKernel::mixed_ksg_max_points},
      {"KSG",
       [](const OracleSample& o, size_t m, int kk, NeighborSearch search,
          const BruteForceKernel& kernel) {
         return internal::MutualInformationKSG(o.xs.data(), o.ys.data(), m,
                                               kk, search, kernel);
       },
       &BruteForceKernel::ksg_max_points},
      {"DC-KSG",
       [](const OracleSample& o, size_t m, int kk, NeighborSearch search,
          const BruteForceKernel& kernel) {
         return internal::MutualInformationDCKSG(o.classes.data(),
                                                 o.ys.data(), m, kk, search,
                                                 kernel);
       },
       &BruteForceKernel::dc_ksg_max_points}};
  const BruteForceKernel& dispatched = internal::DispatchedBruteForceKernel();
  const std::vector<const BruteForceKernel*> kernels = HostKernels();
  // Every k of the unrolled windows, and 9, which KSG and MixedKSG hand to
  // the trees even when brute force is forced.
  for (int k = 1; k <= internal::kMaxBruteForceK + 1; ++k) {
    for (const ForcedEstimator& estimator : estimators) {
      // n = k (too few) to k + 4; blocks of 4 lanes full and with 1-3
      // lanes past n (16-19, 40-43), and 48. For k = 1, 3, 5 and 8, both
      // sides of every host kernel's cutoff, and for k = 1, 3, 5 twice it.
      std::vector<size_t> sizes;
      for (size_t extra = 0; extra <= 4; ++extra) sizes.push_back(k + extra);
      for (size_t n : {16, 17, 18, 19, 40, 41, 42, 43, 48}) sizes.push_back(n);
      for (const BruteForceKernel* kernel : kernels) {
        const size_t cutoff = kernel->*estimator.max_points;
        if (k == 1 || k == 3 || k == 5 || k == internal::kMaxBruteForceK) {
          for (size_t n : {cutoff - 1, cutoff, cutoff + 1}) sizes.push_back(n);
        }
        if (k == 1 || k == 3 || k == 5) sizes.push_back(2 * cutoff);
      }
      for (Shape shape : shapes) {
        for (size_t n : sizes) {
          for (double sigma : {0.0, 1e-3}) {
            OracleSample s = MakeOracleSample(shape, n, 1000 * k + n);
            if (sigma > 0.0) {
              s.xs = PerturbForTies(s.xs, sigma, 11);
              s.ys = PerturbForTies(s.ys, sigma, 12);
            }
            const std::string where =
                std::string(estimator.name) + " " + ShapeName(shape) +
                " k=" + std::to_string(k) + " n=" + std::to_string(n) +
                " sigma=" + std::to_string(sigma);
            const Result<double> trees = estimator.estimate(
                s, n, k, NeighborSearch::kTrees, dispatched);
            for (const BruteForceKernel* kernel : kernels) {
              // Every kernel at every size up to twice its own cutoff; the
              // dispatched one, which takes the longest, at all of them.
              if (kernel != &dispatched &&
                  n > 2 * (kernel->*estimator.max_points)) {
                continue;
              }
              const std::string lanes =
                  " " + std::to_string(kernel->lanes) + " lanes";
              ExpectSameBits(estimator.estimate(s, n, k,
                                                NeighborSearch::kBruteForce,
                                                *kernel),
                             trees, where + lanes);
              ExpectSameBits(
                  estimator.estimate(s, n, k, NeighborSearch::kAuto, *kernel),
                  trees, where + lanes + " (auto)");
            }
          }
        }
      }
    }
  }
}

TEST(SmallSampleKernelTest, KthSmallestIsExactForAnyK) {
  // Every k of the fixed windows (1-8) and the nth_element fallback (9 and
  // up), over ties and infinities of either sign; and, for the windows,
  // NaN, which counts as +inf there.
  Rng rng(5);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  enum class Specials { kNone, kInfinities, kNaN };
  for (size_t n : {1, 2, 9, 10, 40}) {
    for (Specials specials :
         {Specials::kNone, Specials::kInfinities, Specials::kNaN}) {
      std::vector<double> values;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t draw =
            rng.NextBounded(specials == Specials::kNone ? 6 : 8);
        double value = static_cast<double>(draw);
        if (draw == 6) value = specials == Specials::kNaN ? nan : inf;
        if (draw == 7) value = -inf;
        values.push_back(value);
      }
      std::vector<double> sorted = values;
      for (double& value : sorted) {
        if (std::isnan(value)) value = inf;
      }
      std::sort(sorted.begin(), sorted.end());
      const size_t max_k = specials == Specials::kNaN ? std::min<size_t>(n, 8)
                                                      : n;
      for (size_t k = 1; k <= max_k; ++k) {
        std::vector<double> scratch = values;
        EXPECT_EQ(KthSmallest(scratch.data(), n, static_cast<int>(k)),
                  sorted[k - 1])
            << "n=" << n << " k=" << k
            << " specials=" << static_cast<int>(specials);
      }
    }
  }
}

TEST(SmallSampleKernelTest, KsgFamilyRejectsNonFiniteNumbers) {
  // Gaussian pairs below and above each estimator's brute-force cutoff,
  // with one or five +inf, -inf or NaN injected on a numeric side: the
  // KSG family has no neighbour order to agree on, so every such estimate
  // fails with InvalidArgument through EstimateMI, whichever search its
  // size picks. The plug-in estimators hash the same numbers and score.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    MIEstimatorKind kind;
    size_t cutoff;
  };
  const BruteForceKernel& kernel = internal::DispatchedBruteForceKernel();
  for (const Case& c :
       {Case{MIEstimatorKind::kKSG, kernel.ksg_max_points},
        Case{MIEstimatorKind::kMixedKSG, kernel.mixed_ksg_max_points},
        Case{MIEstimatorKind::kDCKSG, kernel.dc_ksg_max_points}}) {
    const bool discrete_x = c.kind == MIEstimatorKind::kDCKSG;
    for (size_t n : {size_t{30}, c.cutoff + 1}) {
      Rng rng(n);
      PairedSample finite;
      for (size_t i = 0; i < n; ++i) {
        const double x = rng.Gaussian();
        finite.x.push_back(discrete_x ? Value("c" + std::to_string(i % 4))
                                      : Value(x));
        finite.y.push_back(Value(x + rng.Gaussian()));
      }
      const std::string base = std::string(MIEstimatorKindToString(c.kind)) +
                               " n=" + std::to_string(n);
      ASSERT_TRUE(EstimateMI(c.kind, finite).ok()) << base;
      for (double special : {inf, -inf, nan}) {
        for (size_t copies : {size_t{1}, size_t{5}}) {
          for (bool on_x : {false, true}) {
            if (on_x && discrete_x) continue;  // x is DC-KSG's discrete side
            PairedSample sample = finite;
            std::vector<Value>& side = on_x ? sample.x : sample.y;
            for (size_t j = 0; j < copies; ++j) side[(7 * j + 3) % n] = special;
            const std::string where = base + " special=" +
                                      std::to_string(special) + " x" +
                                      std::to_string(copies) +
                                      (on_x ? " on x" : " on y");
            const Result<double> estimate = EstimateMI(c.kind, sample);
            EXPECT_TRUE(estimate.status().IsInvalidArgument())
                << where << ": "
                << (estimate.ok() ? std::to_string(*estimate)
                                  : estimate.status().ToString());
            EXPECT_TRUE(EstimateMI(MIEstimatorKind::kMLE, sample).ok())
                << where;
          }
        }
      }
    }
  }
}

// Plug-in MI from ordered-map counts, summing cells in key order.
struct MapReference {
  double mle, miller_madow, laplace;
};

MapReference ReferenceDiscreteMI(const std::vector<Value>& xs,
                                 const std::vector<Value>& ys,
                                 double alpha) {
  std::map<Value, double> cx, cy;
  std::map<std::pair<Value, Value>, double> cxy;
  for (size_t i = 0; i < xs.size(); ++i) {
    cx[xs[i]] += 1.0;
    cy[ys[i]] += 1.0;
    cxy[{xs[i], ys[i]}] += 1.0;
  }
  const double n = static_cast<double>(xs.size());
  auto entropy = [n](const auto& counts) {
    double h = 0.0;
    for (const auto& entry : counts) {
      const double p = entry.second / n;
      h -= p * std::log(p);
    }
    return h;
  };
  const double mx = static_cast<double>(cx.size());
  const double my = static_cast<double>(cy.size());
  const double mxy = static_cast<double>(cxy.size());
  MapReference ref;
  ref.mle = std::max(0.0, entropy(cx) + entropy(cy) - entropy(cxy));
  ref.miller_madow = std::max(
      0.0, ref.mle + (mx - 1.0) / (2.0 * n) + (my - 1.0) / (2.0 * n) -
               (mxy - 1.0) / (2.0 * n));
  // Laplace smoothing over the product support (mle.cc's model).
  const double denom = n + alpha * mx * my;
  double h_joint = 0.0;
  for (const auto& entry : cxy) {
    const double p = (entry.second + alpha) / denom;
    h_joint -= p * std::log(p);
  }
  const double unseen = mx * my - mxy;
  if (unseen > 0.0) {
    const double p = alpha / denom;
    h_joint -= unseen * p * std::log(p);
  }
  auto marginal = [&](const std::map<Value, double>& counts, double other) {
    double h = 0.0;
    for (const auto& entry : counts) {
      const double p = (entry.second + alpha * other) / denom;
      h -= p * std::log(p);
    }
    return h;
  };
  ref.laplace = std::max(0.0, marginal(cx, my) + marginal(cy, mx) - h_joint);
  return ref;
}

TEST(SmallSampleKernelTest, PlugInEstimatorsMatchAMapReference) {
  Rng rng(21);
  for (size_t n : {1, 2, 39, 500}) {
    for (int distinct : {1, 3, 40}) {
      std::vector<Value> xs, ys;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t a = rng.NextBounded(distinct);
        // Strings on x, integers on y correlated with x.
        xs.push_back(Value("v" + std::to_string(a)));
        ys.push_back(Value(static_cast<int64_t>(
            (a + rng.NextBounded(2)) % static_cast<uint64_t>(distinct))));
      }
      const MapReference ref = ReferenceDiscreteMI(xs, ys, 1.0);
      const std::string where =
          "n=" + std::to_string(n) + " distinct=" + std::to_string(distinct);
      EXPECT_NEAR(*MutualInformationMLE(xs, ys), ref.mle, 1e-12) << where;
      EXPECT_NEAR(*MutualInformationMillerMadow(xs, ys), ref.miller_madow,
                  1e-12)
          << where;
      EXPECT_NEAR(*MutualInformationLaplace(xs, ys, 1.0), ref.laplace, 1e-12)
          << where;
    }
  }
}

}  // namespace
}  // namespace joinmi
