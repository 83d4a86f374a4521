// Internal to the MI estimators: how they hold scratch, how the KSG family
// picks its neighbour search, and the entry points that force a search so
// tests can hold the brute force to its tree oracle. The public estimators
// (ksg.h, mixed_ksg.h, dc_ksg.h) always choose by sample size.

#ifndef JOINMI_MI_ESTIMATOR_INTERNAL_H_
#define JOINMI_MI_ESTIMATOR_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"

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
  kAuto = 0,    ///< brute force up to the estimator's limit, trees above
  kBruteForce,  ///< O(n) scan per query point
  kTrees,       ///< SortedPoints1D / KdTree2D, rebuilt per estimate
};

/// \brief Largest sample kAuto scores by brute force, per estimator: about
/// where the trees catch up with the branch-free brute force. Brute vs
/// trees in us per estimate (k=3, 64 seeded Gaussian samples, best of 15
/// alternating rounds, one core of a 4-vCPU Xeon): KSG 5.5 vs 19.1 at
/// n=40, 187 vs 188 at n=224, 327 vs 302 at n=256; MixedKSG 6.5 vs 17.5
/// at n=40, 104 vs 109 at n=160, 133 vs 125 at n=176; DC-KSG over 4
/// classes 3.0 vs 7.2 at n=40, 112 vs 105 at n=256, and over n/3 classes
/// 53 vs 64 at n=256. Sketch-join samples stay below all three at the
/// default capacity of 256, so discovery scores by brute force.
inline constexpr size_t kKsgBruteForceMaxPoints = 224;
inline constexpr size_t kMixedKsgBruteForceMaxPoints = 160;
inline constexpr size_t kDcKsgBruteForceMaxPoints = 256;

inline bool UseBruteForce(NeighborSearch search, size_t n,
                          size_t max_points) {
  return search == NeighborSearch::kBruteForce ||
         (search == NeighborSearch::kAuto && n <= max_points);
}

/// \brief MutualInformationKSG, MutualInformationMixedKSG and
/// MutualInformationDCKSG (pointer forms) with the search given.
Result<double> MutualInformationKSG(const double* xs, const double* ys,
                                    size_t n, int k, NeighborSearch search);
Result<double> MutualInformationMixedKSG(const double* xs, const double* ys,
                                         size_t n, int k,
                                         NeighborSearch search);
Result<double> MutualInformationDCKSG(const uint64_t* x_keys,
                                      const double* ys, size_t n, int k,
                                      NeighborSearch search);

}  // namespace internal
}  // namespace joinmi

#endif  // JOINMI_MI_ESTIMATOR_INTERNAL_H_
