// Nearest-neighbor machinery for the KSG family of estimators: 1-D sorted
// point sets with windowed k-NN / range counting, a 2-D kd-tree under the
// Chebyshev (max) norm, and the exact brute-force kernel that replaces both
// on small samples.

#ifndef JOINMI_MI_KNN_H_
#define JOINMI_MI_KNN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/status.h"

namespace joinmi {

/// \brief Sorted 1-D point set supporting k-NN distances and range counts in
/// O(log n + k) per query.
class SortedPoints1D {
 public:
  SortedPoints1D() = default;
  explicit SortedPoints1D(std::vector<double> points);

  /// \brief Rebuilds over points[0, n), reusing this set's storage.
  void Assign(const double* points, size_t n);

  size_t size() const { return points_.size(); }

  /// \brief Distance from `x` to its k-th nearest neighbor, where one copy
  /// of `x` itself is excluded (callers query with member points).
  /// Precondition: k < size().
  double KthNeighborDistance(double x, int k) const;

  /// \brief Number of points p with |p - x| < r (strict) or <= r, excluding
  /// one copy of x itself when exclude_self is true.
  size_t CountWithin(double x, double r, bool strict,
                     bool exclude_self = true) const;

  const std::vector<double>& sorted_points() const { return points_; }

 private:
  std::vector<double> points_;
};

/// \brief Static 2-D kd-tree over (x, y) points with Chebyshev metric.
///
/// Built once in O(n log n); supports distance-to-kth-neighbor queries and
/// closed/open ball counting. Points are referenced by index so estimators
/// can exclude the query point itself.
class KdTree2D {
 public:
  KdTree2D() = default;
  KdTree2D(std::vector<double> xs, std::vector<double> ys);

  /// \brief Rebuilds over the points (xs[i], ys[i]), i < n, reusing this
  /// tree's storage — a warmed tree rebuilds without allocating.
  void Assign(const double* xs, const double* ys, size_t n);

  size_t size() const { return xs_.size(); }

  /// \brief Chebyshev distance from point `i` to its k-th nearest neighbor
  /// (self excluded). Precondition: k < size().
  double KthNeighborDistance(size_t i, int k) const;

  /// \brief Number of points j != i with Chebyshev distance to point i
  /// strictly less than r (strict=true) or <= r.
  size_t CountWithin(size_t i, double r, bool strict) const;

  /// \brief Number of points j != i at Chebyshev distance exactly 0.
  size_t CountCoincident(size_t i) const;

 private:
  struct Node {
    // Children are implicit (2*node+1 / 2*node+2) in a balanced layout;
    // leaves hold point index ranges instead.
    double split = 0.0;
    int axis = -1;           // -1 marks a leaf
    size_t left = 0;         // child node index or range begin (leaf)
    size_t right = 0;        // child node index or range end (leaf)
  };

  void BuildAll();
  size_t Build(size_t begin, size_t end, int depth);
  void QueryKth(size_t node, size_t self, double px, double py, int k,
                std::vector<double>* heap) const;
  void QueryCount(size_t node, size_t self, double px, double py, double r,
                  bool strict, size_t* count) const;

  static constexpr size_t kLeafSize = 16;

  std::vector<double> xs_, ys_;   // original point order
  std::vector<size_t> order_;     // permutation grouped by leaf
  std::vector<Node> nodes_;
  size_t root_ = 0;
};

namespace internal {

// The k-th smallest by one pass keeping the K smallest so far, ascending:
// each value is merged in with min/max only (best'[t] is min(best[t],
// max(best[t - 1], v))) and no branch on the data. A value at or above
// best[K - 1] leaves the window as it was, so the result is the order
// statistic; NaN is mapped to +inf first, so it leaves the window too.
template <int K>
inline double KthSmallestFixed(const double* values, size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best[K];
  for (int t = 0; t < K; ++t) best[t] = kInf;
  for (size_t j = 0; j < n; ++j) {
    const double v = values[j] == values[j] ? values[j] : kInf;
    for (int t = K - 1; t > 0; --t) {
      best[t] = std::min(best[t], std::max(best[t - 1], v));
    }
    best[0] = std::min(best[0], v);
  }
  return best[K - 1];
}

}  // namespace internal

/// \brief The k-th smallest of values[0, n), 1 <= k <= n — an order
/// statistic, so exact for any k and ties. For k <= 8 a NaN counts as
/// +inf. May reorder `values`. Defined here so the compiler can inline it
/// into DC-KSG's within-class search.
inline double KthSmallest(double* values, size_t n, int k) {
  switch (k) {
    case 1:
      return internal::KthSmallestFixed<1>(values, n);
    case 2:
      return internal::KthSmallestFixed<2>(values, n);
    case 3:
      return internal::KthSmallestFixed<3>(values, n);
    case 4:
      return internal::KthSmallestFixed<4>(values, n);
    case 5:
      return internal::KthSmallestFixed<5>(values, n);
    case 6:
      return internal::KthSmallestFixed<6>(values, n);
    case 7:
      return internal::KthSmallestFixed<7>(values, n);
    case 8:
      return internal::KthSmallestFixed<8>(values, n);
    default:
      std::nth_element(values, values + (k - 1), values + n);
      return values[k - 1];
  }
}

namespace internal {

/// \brief The brute-force neighbour search of the KSG family: one kernel
/// source, compiled once per instruction set, that scores a block of
/// `lanes` query points per pass over the sample. It uses only exact
/// operations (subtract, abs, min/max, compare, and counts held in double
/// lanes), so every instantiation returns what SortedPoints1D and KdTree2D
/// return, bit for bit.
struct BruteForceKernel {
  int lanes;
  /// For each i < n: radius[i], the Chebyshev distance from (xs[i], ys[i])
  /// to its k-th nearest other point (as KthSmallest ranks them, so a NaN
  /// distance counts as +inf), and coincident[i], the points at distance 0,
  /// itself included. Precondition: 1 <= k <= kMaxBruteForceK, k < n.
  void (*joint_kth)(const double* xs, const double* ys, size_t n, int k,
                    double* radius, double* coincident);
  /// For each i < n: counts[i], the points p of points[0, n) with
  /// points[i] - radius[i] < p < points[i] + radius[i] — or, when
  /// equal_at_zero and radius[i] == 0, with p == points[i]. No point is
  /// excluded.
  void (*interval_counts)(const double* points, size_t n,
                          const double* radius, bool equal_at_zero,
                          double* counts);
  /// Largest sample NeighborSearch::kAuto scores with this instantiation,
  /// per estimator: about where the trees catch up with it.
  size_t ksg_max_points;
  size_t mixed_ksg_max_points;
  size_t dc_ksg_max_points;
};

/// \brief Largest k joint_kth takes: its K-smallest window is unrolled per
/// k. KSG and MixedKSG search with the trees above it.
inline constexpr int kMaxBruteForceK = 8;

/// \brief The 2-lane instantiation, built for the baseline instruction set.
const BruteForceKernel& BaselineBruteForceKernel();

/// \brief The 4-lane AVX2 instantiation, or null when the build is not for
/// x86 or the CPU lacks AVX2.
const BruteForceKernel* Avx2BruteForceKernel();

/// \brief The instantiation the estimators use, picked once per process:
/// AVX2 when the CPU has it, the baseline otherwise.
const BruteForceKernel& DispatchedBruteForceKernel();

}  // namespace internal

}  // namespace joinmi

#endif  // JOINMI_MI_KNN_H_
