#include "src/mi/mixed_ksg.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/math.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/knn.h"

namespace joinmi {

namespace internal {

namespace {

struct MixedKsgScratch {
  std::vector<double> dist;
  KdTree2D joint;
  SortedPoints1D sorted_x, sorted_y;
};

}  // namespace

Result<double> MutualInformationMixedKSG(const double* xs, const double* ys,
                                         size_t n, int k,
                                         NeighborSearch search) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n <= static_cast<size_t>(k)) {
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
  double acc = 0.0;
  auto add = [&acc, log_n](size_t k_tilde, size_t nx, size_t ny) {
    acc += DigammaOfInt(k_tilde) + log_n - LogOfInt(nx) - LogOfInt(ny);
  };
  WithScratch<MixedKsgScratch>(n, [&](MixedKsgScratch& scratch) {
    if (UseBruteForce(search, n, kMixedKsgBruteForceMaxPoints)) {
      std::vector<double>& dist = scratch.dist;
      if (dist.size() < n) dist.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const double xi = xs[i];
        const double yi = ys[i];
        size_t coincident = 0;  // self included
        for (size_t j = 0; j < n; ++j) {
          const double d =
              std::max(std::fabs(xs[j] - xi), std::fabs(ys[j] - yi));
          dist[j] = d;
          coincident += static_cast<size_t>(d <= 0.0);
        }
        dist[i] = std::numeric_limits<double>::infinity();
        const double rho = KthSmallest(dist.data(), n, k);
        if (rho == 0.0) {
          add(coincident, CountInInterval(xs, n, xi, xi, /*strict=*/false),
              CountInInterval(ys, n, yi, yi, /*strict=*/false));
        } else {
          add(static_cast<size_t>(k),
              CountInInterval(xs, n, xi - rho, xi + rho, /*strict=*/true),
              CountInInterval(ys, n, yi - rho, yi + rho, /*strict=*/true));
        }
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
        add(joint.CountCoincident(i) + 1,
            sorted_x.CountWithin(xs[i], 0.0, /*strict=*/false,
                                 /*exclude_self=*/false),
            sorted_y.CountWithin(ys[i], 0.0, /*strict=*/false,
                                 /*exclude_self=*/false));
      } else {
        add(static_cast<size_t>(k),
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
