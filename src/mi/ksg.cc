#include "src/mi/ksg.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/math.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/knn.h"

namespace joinmi {

namespace internal {

namespace {

struct KsgScratch {
  std::vector<double> dist;
  KdTree2D joint;
  SortedPoints1D sorted_x, sorted_y;
};

}  // namespace

Result<double> MutualInformationKSG(const double* xs, const double* ys,
                                    size_t n, int k, NeighborSearch search) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n <= static_cast<size_t>(k)) {
    return Status::InvalidArgument("KSG needs more than k samples");
  }
  const double acc = WithScratch<KsgScratch>(n, [&](KsgScratch& scratch) {
    double sum = 0.0;
    if (UseBruteForce(search, n, kKsgBruteForceMaxPoints)) {
      std::vector<double>& dist = scratch.dist;
      if (dist.size() < n) dist.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const double xi = xs[i];
        const double yi = ys[i];
        for (size_t j = 0; j < n; ++j) {
          dist[j] = std::max(std::fabs(xs[j] - xi), std::fabs(ys[j] - yi));
        }
        dist[i] = std::numeric_limits<double>::infinity();
        const double eps = KthSmallest(dist.data(), n, k);
        // Marginal counts strictly inside the ball; SortedPoints1D excludes
        // one copy of the point itself whenever the open ball is non-empty.
        size_t nx =
            CountInInterval(xs, n, xi - eps, xi + eps, /*strict=*/true);
        size_t ny =
            CountInInterval(ys, n, yi - eps, yi + eps, /*strict=*/true);
        if (eps > 0.0) {
          nx -= nx > 0;
          ny -= ny > 0;
        }
        sum += DigammaOfInt(nx + 1) + DigammaOfInt(ny + 1);
      }
      return sum;
    }
    scratch.joint.Assign(xs, ys, n);
    scratch.sorted_x.Assign(xs, n);
    scratch.sorted_y.Assign(ys, n);
    for (size_t i = 0; i < n; ++i) {
      const double eps = scratch.joint.KthNeighborDistance(i, k);
      // Marginal counts strictly inside the ball, self excluded (KSG-1).
      const size_t nx =
          scratch.sorted_x.CountWithin(xs[i], eps, /*strict=*/true);
      const size_t ny =
          scratch.sorted_y.CountWithin(ys[i], eps, /*strict=*/true);
      sum += DigammaOfInt(nx + 1) + DigammaOfInt(ny + 1);
    }
    return sum;
  });
  const double mi = DigammaOfInt(static_cast<size_t>(k)) + DigammaOfInt(n) -
                    acc / static_cast<double>(n);
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace internal

Result<double> MutualInformationKSG(const double* xs, const double* ys,
                                    size_t n, int k) {
  return internal::MutualInformationKSG(xs, ys, n, k,
                                        internal::NeighborSearch::kAuto);
}

Result<double> MutualInformationKSG(const std::vector<double>& xs,
                                    const std::vector<double>& ys, int k) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("MI inputs must be paired");
  }
  return MutualInformationKSG(xs.data(), ys.data(), xs.size(), k);
}

}  // namespace joinmi
