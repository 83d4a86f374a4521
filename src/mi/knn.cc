#include "src/mi/knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace joinmi {

SortedPoints1D::SortedPoints1D(std::vector<double> points)
    : points_(std::move(points)) {
  std::sort(points_.begin(), points_.end());
}

void SortedPoints1D::Assign(const double* points, size_t n) {
  points_.assign(points, points + n);
  std::sort(points_.begin(), points_.end());
}

double SortedPoints1D::KthNeighborDistance(double x, int k) const {
  const size_t n = points_.size();
  // hi = first element >= x; lo = last element < x.
  size_t hi = static_cast<size_t>(
      std::lower_bound(points_.begin(), points_.end(), x) - points_.begin());
  size_t lo_plus1 = hi;  // lo = lo_plus1 - 1 to avoid size_t underflow
  // Skip one copy of x itself (callers query with member points).
  if (hi < n && points_[hi] == x) ++hi;
  double dist = 0.0;
  for (int taken = 0; taken < k; ++taken) {
    const double left =
        lo_plus1 > 0 ? x - points_[lo_plus1 - 1]
                     : std::numeric_limits<double>::infinity();
    const double right = hi < n ? points_[hi] - x
                                : std::numeric_limits<double>::infinity();
    if (left <= right) {
      dist = left;
      --lo_plus1;
    } else {
      dist = right;
      ++hi;
    }
  }
  return dist;
}

size_t SortedPoints1D::CountWithin(double x, double r, bool strict,
                                   bool exclude_self) const {
  size_t begin, end;
  if (strict) {
    // (x - r, x + r): elements e with e > x - r and e < x + r.
    begin = static_cast<size_t>(
        std::upper_bound(points_.begin(), points_.end(), x - r) -
        points_.begin());
    end = static_cast<size_t>(
        std::lower_bound(points_.begin(), points_.end(), x + r) -
        points_.begin());
  } else {
    // [x - r, x + r].
    begin = static_cast<size_t>(
        std::lower_bound(points_.begin(), points_.end(), x - r) -
        points_.begin());
    end = static_cast<size_t>(
        std::upper_bound(points_.begin(), points_.end(), x + r) -
        points_.begin());
  }
  size_t count = end > begin ? end - begin : 0;
  if (exclude_self && count > 0) {
    // x itself is inside the interval iff its self-distance 0 qualifies.
    const bool self_in_range = strict ? (r > 0.0) : (r >= 0.0);
    if (self_in_range &&
        std::binary_search(points_.begin(), points_.end(), x)) {
      --count;
    }
  }
  return count;
}

KdTree2D::KdTree2D(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  BuildAll();
}

void KdTree2D::Assign(const double* xs, const double* ys, size_t n) {
  xs_.assign(xs, xs + n);
  ys_.assign(ys, ys + n);
  BuildAll();
}

void KdTree2D::BuildAll() {
  order_.resize(xs_.size());
  std::iota(order_.begin(), order_.end(), size_t{0});
  nodes_.clear();
  root_ = 0;
  if (!order_.empty()) {
    nodes_.reserve(2 * order_.size() / kLeafSize + 4);
    root_ = Build(0, order_.size(), /*depth=*/0);
  }
}

size_t KdTree2D::Build(size_t begin, size_t end, int depth) {
  const size_t node_index = nodes_.size();
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    nodes_[node_index].axis = -1;
    nodes_[node_index].left = begin;
    nodes_[node_index].right = end;
    return node_index;
  }
  const int axis = depth % 2;
  const std::vector<double>& coord = axis == 0 ? xs_ : ys_;
  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(begin),
                   order_.begin() + static_cast<ptrdiff_t>(mid),
                   order_.begin() + static_cast<ptrdiff_t>(end),
                   [&coord](size_t a, size_t b) { return coord[a] < coord[b]; });
  const double split = coord[order_[mid]];
  const size_t left_child = Build(begin, mid, depth + 1);
  const size_t right_child = Build(mid, end, depth + 1);
  nodes_[node_index].axis = axis;
  nodes_[node_index].split = split;
  nodes_[node_index].left = left_child;
  nodes_[node_index].right = right_child;
  return node_index;
}

void KdTree2D::QueryKth(size_t node, size_t self, double px, double py, int k,
                        std::vector<double>* heap) const {
  const Node& nd = nodes_[node];
  if (nd.axis == -1) {
    for (size_t pos = nd.left; pos < nd.right; ++pos) {
      const size_t j = order_[pos];
      if (j == self) continue;
      const double d = std::max(std::fabs(xs_[j] - px), std::fabs(ys_[j] - py));
      if (heap->size() < static_cast<size_t>(k)) {
        heap->push_back(d);
        std::push_heap(heap->begin(), heap->end());
      } else if (d < heap->front()) {
        std::pop_heap(heap->begin(), heap->end());
        heap->back() = d;
        std::push_heap(heap->begin(), heap->end());
      }
    }
    return;
  }
  const double q = nd.axis == 0 ? px : py;
  const size_t near = q < nd.split ? nd.left : nd.right;
  const size_t far = q < nd.split ? nd.right : nd.left;
  QueryKth(near, self, px, py, k, heap);
  const double axis_dist = std::fabs(q - nd.split);
  if (heap->size() < static_cast<size_t>(k) || axis_dist <= heap->front()) {
    QueryKth(far, self, px, py, k, heap);
  }
}

double KdTree2D::KthNeighborDistance(size_t i, int k) const {
  thread_local std::vector<double> heap;
  heap.clear();
  QueryKth(root_, i, xs_[i], ys_[i], k, &heap);
  return heap.front();
}

void KdTree2D::QueryCount(size_t node, size_t self, double px, double py,
                          double r, bool strict, size_t* count) const {
  const Node& nd = nodes_[node];
  if (nd.axis == -1) {
    for (size_t pos = nd.left; pos < nd.right; ++pos) {
      const size_t j = order_[pos];
      if (j == self) continue;
      const double d = std::max(std::fabs(xs_[j] - px), std::fabs(ys_[j] - py));
      if (strict ? d < r : d <= r) ++(*count);
    }
    return;
  }
  const double q = nd.axis == 0 ? px : py;
  const size_t near = q < nd.split ? nd.left : nd.right;
  const size_t far = q < nd.split ? nd.right : nd.left;
  QueryCount(near, self, px, py, r, strict, count);
  const double axis_dist = std::fabs(q - nd.split);
  // A point in the far subtree is at Chebyshev distance >= axis_dist.
  const bool far_can_match = strict ? axis_dist < r : axis_dist <= r;
  if (far_can_match) QueryCount(far, self, px, py, r, strict, count);
}

size_t KdTree2D::CountWithin(size_t i, double r, bool strict) const {
  size_t count = 0;
  QueryCount(root_, i, xs_[i], ys_[i], r, strict, &count);
  return count;
}

size_t KdTree2D::CountCoincident(size_t i) const {
  return CountWithin(i, 0.0, /*strict=*/false);
}

namespace internal {

// The brute-force kernel, written once over a lane type V (a GCC/clang
// vector of doubles) and instantiated twice: 2 lanes for the baseline
// instruction set and 4 inside AVX2 target functions. Every helper is
// forced inline, so each instantiation is compiled whole for its own
// instruction set. Lane i of a block is query point i0 + i; the sample is
// read one point at a time, broadcast to every lane.
namespace {

#if defined(__x86_64__) || defined(__i386__)
#define JOINMI_KNN_X86 1
#endif

#define JOINMI_LANES inline __attribute__((always_inline))

typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));

template <typename V>
constexpr int kLanesOf = static_cast<int>(sizeof(V) / sizeof(double));

// A lane comparison's result: all bits set in the lanes where it holds.
template <typename V>
using Mask = decltype(V{} < V{});

// x in every lane, for constants. The kernels' loops broadcast sample
// points in place, as x - V{} (exact: x - +0 is x, -0 included): GCC
// builds a 4-lane vector returned by a helper from two halves.
template <typename V>
JOINMI_LANES V Splat(double x) {
  return x - V{};
}

// a in the lanes where m holds, +0 elsewhere.
template <typename V>
JOINMI_LANES V Keep(V a, Mask<V> m) {
  return (V)((Mask<V>)a & m);
}

// a where m holds, b elsewhere: and/andnot on the mask, except that GCC
// gets its vector conditional, which it compiles to minpd / maxpd in Min
// and Max below (the bitwise form to a byte blend). Clang's vector
// conditional is recent, and it folds the bitwise form itself.
template <typename V>
JOINMI_LANES V Select(Mask<V> m, V a, V b) {
#if defined(__clang__)
  return (V)(((Mask<V>)a & m) | ((Mask<V>)b & ~m));
#else
  return m ? a : b;
#endif
}

// a < b ? a : b and a > b ? a : b per lane (x86's minpd / maxpd): a NaN
// in either operand yields b.
template <typename V>
JOINMI_LANES V Min(V a, V b) {
  return Select<V>(a < b, a, b);
}

template <typename V>
JOINMI_LANES V Max(V a, V b) {
  return Select<V>(a > b, a, b);
}

template <typename V>
JOINMI_LANES V Abs(V a) {
  return (V)((Mask<V>)a & ~(Mask<V>)Splat<V>(-0.0));
}

// Lane t of the block at i0 reads values[i0 + t], clamped to the last
// value: lanes past n compute on a valid point, and StoreValid drops them.
template <typename V>
JOINMI_LANES V LoadClamped(const double* values, size_t i0, size_t n) {
  V v;
  if (i0 + kLanesOf<V> <= n) {
    std::memcpy(&v, values + i0, sizeof(v));
  } else {
    for (int t = 0; t < kLanesOf<V>; ++t) {
      v[t] = values[std::min(i0 + t, n - 1)];
    }
  }
  return v;
}

template <typename V>
JOINMI_LANES void StoreValid(V v, size_t i0, size_t n, double* out) {
  if (i0 + kLanesOf<V> <= n) {
    std::memcpy(out + i0, &v, sizeof(v));
  } else {
    for (int t = 0; i0 + t < n; ++t) out[i0 + t] = v[t];
  }
}

// KthSmallestFixed's window step, per lane, for best[0..T], unrolled so
// the window stays in registers. d is never NaN, so the operand order is
// free: it is chosen so that no two steps share a comparison, which keeps
// each one a single min or max.
template <typename V, int T>
JOINMI_LANES void Offer(V* best, V d) {
  if constexpr (T > 0) {
    best[T] = Min(Max(d, best[T - 1]), best[T]);
    Offer<V, T - 1>(best, d);
  } else {
    best[0] = Min(d, best[0]);
  }
}

template <typename V, int K>
JOINMI_LANES void JointKthLanes(const double* xs, const double* ys, size_t n,
                                double* radius, double* coincident) {
  constexpr size_t L = kLanesOf<V>;
  const V inf = Splat<V>(std::numeric_limits<double>::infinity());
  const V one = Splat<V>(1.0);
  V lane;
  for (size_t t = 0; t < L; ++t) lane[t] = static_cast<double>(t);
  for (size_t i0 = 0; i0 < n; i0 += L) {
    const V qx = LoadClamped<V>(xs, i0, n);
    const V qy = LoadClamped<V>(ys, i0, n);
    V best[K];
    for (int t = 0; t < K; ++t) best[t] = inf;
    V same = {};
    for (size_t j = 0; j < n; ++j) {
      // std::max(|x_j - x_i|, |y_j - y_i|), operands in the same order,
      // with NaN as +inf, as KthSmallest ranks it; x_j - V{} is x_j in
      // every lane (see Splat).
      V d = Min(Max(Abs((ys[j] - V{}) - qy), Abs((xs[j] - V{}) - qx)), inf);
      same += Keep(one, d <= V{});
      // Point j is the query point of lane j - i0: out of its window.
      if (j - i0 < L) {
        d = Max(Keep(inf, lane == Splat<V>(static_cast<double>(j - i0))), d);
      }
      Offer<V, K - 1>(best, d);
    }
    StoreValid(best[K - 1], i0, n, radius);
    StoreValid(same, i0, n, coincident);
  }
}

template <typename V>
JOINMI_LANES void JointKth(const double* xs, const double* ys, size_t n,
                           int k, double* radius, double* coincident) {
  switch (k) {
    case 1:
      return JointKthLanes<V, 1>(xs, ys, n, radius, coincident);
    case 2:
      return JointKthLanes<V, 2>(xs, ys, n, radius, coincident);
    case 3:
      return JointKthLanes<V, 3>(xs, ys, n, radius, coincident);
    case 4:
      return JointKthLanes<V, 4>(xs, ys, n, radius, coincident);
    case 5:
      return JointKthLanes<V, 5>(xs, ys, n, radius, coincident);
    case 6:
      return JointKthLanes<V, 6>(xs, ys, n, radius, coincident);
    case 7:
      return JointKthLanes<V, 7>(xs, ys, n, radius, coincident);
    case 8:
      return JointKthLanes<V, 8>(xs, ys, n, radius, coincident);
  }
}

template <typename V, bool kEqualAtZero>
JOINMI_LANES void IntervalCountsLanes(const double* points, size_t n,
                                      const double* radius, double* counts) {
  constexpr size_t L = kLanesOf<V>;
  const V one = Splat<V>(1.0);
  for (size_t i0 = 0; i0 < n; i0 += L) {
    const V c = LoadClamped<V>(points, i0, n);
    const V r = LoadClamped<V>(radius, i0, n);
    const V lo = c - r;
    const V hi = c + r;
    const Mask<V> at_zero = r == V{};
    V count = {};
    for (size_t j = 0; j < n; ++j) {
      const V p = points[j] - V{};
      Mask<V> in = (p > lo) & (p < hi);
      if (kEqualAtZero) in |= (p == c) & at_zero;
      count += Keep(one, in);
    }
    StoreValid(count, i0, n, counts);
  }
}

template <typename V>
JOINMI_LANES void IntervalCounts(const double* points, size_t n,
                                 const double* radius, bool equal_at_zero,
                                 double* counts) {
  if (equal_at_zero) {
    IntervalCountsLanes<V, true>(points, n, radius, counts);
  } else {
    IntervalCountsLanes<V, false>(points, n, radius, counts);
  }
}

void JointKthBaseline(const double* xs, const double* ys, size_t n, int k,
                      double* radius, double* coincident) {
  JointKth<Lanes2>(xs, ys, n, k, radius, coincident);
}

void IntervalCountsBaseline(const double* points, size_t n,
                            const double* radius, bool equal_at_zero,
                            double* counts) {
  IntervalCounts<Lanes2>(points, n, radius, equal_at_zero, counts);
}

// The *_max_points of each instantiation are about where the trees catch
// up with it. Brute vs trees in us per estimate, k=3, 64 seeded Gaussian
// samples, best of 15 alternating rounds, one core of a 4-vCPU Xeon with
// AVX2 (the 2-lane rows run the baseline instantiation on the same core):
//
//   estimator          lanes  n=40         below the cut    above it
//   KSG                2      6.1 vs 20.2  191 vs 195 @256  242 vs 229 @288
//   MixedKSG           2      5.5 vs 16.2  103 vs 107 @176  120 vs 120 @192
//   DC-KSG, 4 classes  2      3.2 vs 7.1   51 vs 52 @192    65 vs 62 @208
//   KSG                4      1.8 vs 18.4  986 vs 996 @1024 1095 vs 1065 @1088
//   MixedKSG           4      2.0 vs 16.3  520 vs 539 @704  595 vs 596 @736
//   DC-KSG, 4 classes  4      2.4 vs 7.7   155 vs 158 @448  196 vs 183 @480
//
// DC-KSG over n/3 classes favours the brute force more with 4 lanes (66 vs
// 132 at n=512) than with 2 (61 vs 59 at n=256).
constexpr BruteForceKernel kBaselineKernel = {
    kLanesOf<Lanes2>, JointKthBaseline, IntervalCountsBaseline,
    /*ksg_max_points=*/256, /*mixed_ksg_max_points=*/176,
    /*dc_ksg_max_points=*/192};

#ifdef JOINMI_KNN_X86
__attribute__((target("avx2"))) void JointKthAvx2(const double* xs,
                                                  const double* ys, size_t n,
                                                  int k, double* radius,
                                                  double* coincident) {
  JointKth<Lanes4>(xs, ys, n, k, radius, coincident);
}

__attribute__((target("avx2"))) void IntervalCountsAvx2(
    const double* points, size_t n, const double* radius, bool equal_at_zero,
    double* counts) {
  IntervalCounts<Lanes4>(points, n, radius, equal_at_zero, counts);
}

constexpr BruteForceKernel kAvx2Kernel = {
    kLanesOf<Lanes4>, JointKthAvx2, IntervalCountsAvx2,
    /*ksg_max_points=*/1024, /*mixed_ksg_max_points=*/704,
    /*dc_ksg_max_points=*/448};
#endif

}  // namespace

const BruteForceKernel& BaselineBruteForceKernel() { return kBaselineKernel; }

const BruteForceKernel* Avx2BruteForceKernel() {
#ifdef JOINMI_KNN_X86
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2 ? &kAvx2Kernel : nullptr;
#else
  return nullptr;
#endif
}

const BruteForceKernel& DispatchedBruteForceKernel() {
  static const BruteForceKernel& kernel =
      Avx2BruteForceKernel() != nullptr ? *Avx2BruteForceKernel()
                                        : BaselineBruteForceKernel();
  return kernel;
}

}  // namespace internal

}  // namespace joinmi
