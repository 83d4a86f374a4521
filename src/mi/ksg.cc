#include "src/mi/ksg.h"

#include "src/common/math.h"
#include "src/mi/estimator.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/knn.h"

namespace joinmi {

namespace internal {

Result<double> MutualInformationKSG(const double* xs, const double* ys,
                                    size_t n, int k, NeighborSearch search,
                                    const BruteForceKernel& kernel) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n < MinimumSamples(MIEstimatorKind::kKSG, k)) {
    return Status::InvalidArgument("KSG needs more than k samples");
  }
  double acc = 0.0;
  WithScratch<JointKnnScratch>(n, [&](JointKnnScratch& scratch) {
    if (k <= kMaxBruteForceK &&
        UseBruteForce(search, n, kernel.ksg_max_points)) {
      scratch.BruteForce(kernel, xs, ys, n, k, /*equal_at_zero=*/false);
      for (size_t i = 0; i < n; ++i) {
        // Marginal counts strictly inside the ball; SortedPoints1D excludes
        // one copy of the point itself whenever the open ball is non-empty.
        size_t nx = static_cast<size_t>(scratch.nx[i]);
        size_t ny = static_cast<size_t>(scratch.ny[i]);
        if (scratch.radius[i] > 0.0) {
          nx -= nx > 0;
          ny -= ny > 0;
        }
        acc += DigammaOfInt(nx + 1) + DigammaOfInt(ny + 1);
      }
      return;
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
      acc += DigammaOfInt(nx + 1) + DigammaOfInt(ny + 1);
    }
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
