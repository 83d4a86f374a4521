#include "src/mi/knn.h"

#include <algorithm>
#include <cmath>
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

}  // namespace joinmi
