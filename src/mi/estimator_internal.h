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
  kAuto = 0,    ///< brute force up to kBruteForceMaxPoints, trees above
  kBruteForce,  ///< O(n) scan per query point
  kTrees,       ///< SortedPoints1D / KdTree2D, rebuilt per estimate
};

/// \brief Largest sample kAuto scores by brute force: about the crossover.
/// Brute vs trees in us per MixedKSG estimate (k=3, Gaussian pairs, one
/// core of a 4-vCPU Xeon): 1.7 vs 2.5 at n=24, 4.3 vs 4.9 at n=40, 6.4 vs
/// 6.2 at n=48, 11.3 vs 8.5 at n=64. KSG crosses near n=64, DC-KSG near
/// n=32-48 depending on class sizes.
inline constexpr size_t kBruteForceMaxPoints = 48;

inline bool UseBruteForce(NeighborSearch search, size_t n) {
  return search == NeighborSearch::kBruteForce ||
         (search == NeighborSearch::kAuto && n <= kBruteForceMaxPoints);
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
