// Internal to the MI estimators: how they hold scratch, how the KSG family
// picks its neighbour search, and the entry points that force a search so
// tests can hold the brute force to its tree oracle. The public estimators
// (ksg.h, mixed_ksg.h, dc_ksg.h) always choose by sample size.

#ifndef JOINMI_MI_ESTIMATOR_INTERNAL_H_
#define JOINMI_MI_ESTIMATOR_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/mi/knn.h"

namespace joinmi {
namespace internal {

/// \brief Largest sample whose scratch a thread keeps between estimates.
/// Sketch-join samples stay far below it (they are bounded by the sketch
/// capacity, 256 by default), so the scoring loop reuses warm scratch and
/// never allocates; a materialized join of millions of rows gets call-local
/// scratch that is freed on return.
inline constexpr size_t kMaxRetainedScratchPoints = 4096;

/// \brief The calling thread's reused `Scratch`, one per type.
template <typename Scratch>
Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// \brief Runs `fn(scratch)` on a `Scratch`: the thread's reused one for
/// samples of up to kMaxRetainedScratchPoints, a fresh call-local one
/// above. Calls must not nest for the same `Scratch` type.
template <typename Scratch, typename Fn>
auto WithScratch(size_t n, Fn&& fn) {
  if (n <= kMaxRetainedScratchPoints) return fn(ThreadScratch<Scratch>());
  Scratch scratch;
  return fn(scratch);
}

/// \brief How a KSG-family estimator finds neighbours. Both strategies are
/// exact and give bitwise-equal estimates — the trees are the brute force's
/// test oracle — so the choice only trades speed.
enum class NeighborSearch : uint8_t {
  kAuto = 0,    ///< brute force up to the kernel's limit for the
                ///< estimator (BruteForceKernel::*_max_points), trees above
  kBruteForce,  ///< BruteForceKernel, O(n) per query point (trees above
                ///< k = kMaxBruteForceK for KSG and MixedKSG)
  kTrees,       ///< SortedPoints1D / KdTree2D, rebuilt per estimate
};

inline bool UseBruteForce(NeighborSearch search, size_t n,
                          size_t max_points) {
  return search == NeighborSearch::kBruteForce ||
         (search == NeighborSearch::kAuto && n <= max_points);
}

/// \brief Scratch of the joint-space estimators (KSG, MixedKSG): the
/// brute force's per-point results, and the trees.
struct JointKnnScratch {
  std::vector<double> radius, coincident, nx, ny;
  KdTree2D joint;
  SortedPoints1D sorted_x, sorted_y;

  /// \brief Per point i < n, by `kernel`: radius[i] and coincident[i] from
  /// joint_kth, and nx[i], ny[i], the marginal interval_counts around x_i
  /// and y_i at that radius.
  void BruteForce(const BruteForceKernel& kernel, const double* xs,
                  const double* ys, size_t n, int k, bool equal_at_zero) {
    for (std::vector<double>* column : {&radius, &coincident, &nx, &ny}) {
      if (column->size() < n) column->resize(n);
    }
    kernel.joint_kth(xs, ys, n, k, radius.data(), coincident.data());
    kernel.interval_counts(xs, n, radius.data(), equal_at_zero, nx.data());
    kernel.interval_counts(ys, n, radius.data(), equal_at_zero, ny.data());
  }
};

/// \brief MutualInformationKSG, MutualInformationMixedKSG and
/// MutualInformationDCKSG (pointer forms) with the search given, and the
/// brute force run by `kernel`.
Result<double> MutualInformationKSG(
    const double* xs, const double* ys, size_t n, int k,
    NeighborSearch search,
    const BruteForceKernel& kernel = DispatchedBruteForceKernel());
Result<double> MutualInformationMixedKSG(
    const double* xs, const double* ys, size_t n, int k,
    NeighborSearch search,
    const BruteForceKernel& kernel = DispatchedBruteForceKernel());
Result<double> MutualInformationDCKSG(
    const uint64_t* x_keys, const double* ys, size_t n, int k,
    NeighborSearch search,
    const BruteForceKernel& kernel = DispatchedBruteForceKernel());

}  // namespace internal
}  // namespace joinmi

#endif  // JOINMI_MI_ESTIMATOR_INTERNAL_H_
