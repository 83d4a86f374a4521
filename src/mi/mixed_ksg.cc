#include "src/mi/mixed_ksg.h"

#include <cmath>

#include "src/common/math.h"
#include "src/mi/estimator.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/knn.h"

namespace joinmi {

namespace internal {

Result<double> MutualInformationMixedKSG(const double* xs, const double* ys,
                                         size_t n, int k,
                                         NeighborSearch search,
                                         const BruteForceKernel& kernel) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n < MinimumSamples(MIEstimatorKind::kMixedKSG, k)) {
    return Status::InvalidArgument("MixedKSG needs more than k samples");
  }
  // Per point: k~ (psi argument), and the marginal neighbour counts n_x,
  // n_y. When the k-th neighbour distance rho is zero (a discrete region),
  // k~ is the joint point's multiplicity and the counts are exact marginal
  // coincidences; otherwise k~ = k and the counts are over the open ball
  // (the reference shrinks the radius by 1e-15 to exclude points at exactly
  // rho). All counts include the point itself, matching the reference
  // implementation (query_ball_point includes the center).
  const double log_n = std::log(static_cast<double>(n));
  const double psi_k = DigammaOfInt(static_cast<size_t>(k));
  double acc = 0.0;
  auto add = [&acc, log_n](double psi_k_tilde, size_t nx, size_t ny) {
    acc += psi_k_tilde + log_n - LogOfInt(nx) - LogOfInt(ny);
  };
  WithScratch<JointKnnScratch>(n, [&](JointKnnScratch& scratch) {
    if (k <= kMaxBruteForceK &&
        UseBruteForce(search, n, kernel.mixed_ksg_max_points)) {
      scratch.BruteForce(kernel, xs, ys, n, k, /*equal_at_zero=*/true);
      for (size_t i = 0; i < n; ++i) {
        add(scratch.radius[i] == 0.0
                ? DigammaOfInt(static_cast<size_t>(scratch.coincident[i]))
                : psi_k,
            static_cast<size_t>(scratch.nx[i]),
            static_cast<size_t>(scratch.ny[i]));
      }
      return;
    }
    KdTree2D& joint = scratch.joint;
    SortedPoints1D& sorted_x = scratch.sorted_x;
    SortedPoints1D& sorted_y = scratch.sorted_y;
    joint.Assign(xs, ys, n);
    sorted_x.Assign(xs, n);
    sorted_y.Assign(ys, n);
    for (size_t i = 0; i < n; ++i) {
      const double rho = joint.KthNeighborDistance(i, k);
      if (rho == 0.0) {
        add(DigammaOfInt(joint.CountCoincident(i) + 1),
            sorted_x.CountWithin(xs[i], 0.0, /*strict=*/false,
                                 /*exclude_self=*/false),
            sorted_y.CountWithin(ys[i], 0.0, /*strict=*/false,
                                 /*exclude_self=*/false));
      } else {
        add(psi_k,
            sorted_x.CountWithin(xs[i], rho, /*strict=*/true,
                                 /*exclude_self=*/false),
            sorted_y.CountWithin(ys[i], rho, /*strict=*/true,
                                 /*exclude_self=*/false));
      }
    }
  });
  const double mi = acc / static_cast<double>(n);
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace internal

Result<double> MutualInformationMixedKSG(const double* xs, const double* ys,
                                         size_t n, int k) {
  return internal::MutualInformationMixedKSG(xs, ys, n, k,
                                             internal::NeighborSearch::kAuto);
}

Result<double> MutualInformationMixedKSG(const std::vector<double>& xs,
                                         const std::vector<double>& ys,
                                         int k) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("MI inputs must be paired");
  }
  return MutualInformationMixedKSG(xs.data(), ys.data(), xs.size(), k);
}

}  // namespace joinmi
