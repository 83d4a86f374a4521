#include "src/mi/entropy.h"

#include <algorithm>
#include <cmath>

#include "src/common/math.h"
#include "src/mi/knn.h"

namespace joinmi {

double EntropyMLE(const Histogram& hist) {
  if (hist.total == 0) return 0.0;
  const double n = static_cast<double>(hist.total);
  double h = 0.0;
  for (uint64_t count : hist.counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    h -= p * std::log(p);
  }
  return h;
}

double EntropyMillerMadow(const Histogram& hist) {
  if (hist.total == 0) return 0.0;
  size_t support = 0;
  for (uint64_t count : hist.counts) {
    if (count > 0) ++support;
  }
  return EntropyMLE(hist) + (static_cast<double>(support) - 1.0) /
                                (2.0 * static_cast<double>(hist.total));
}

double EntropyLaplace(const Histogram& hist, double alpha) {
  if (hist.total == 0) return 0.0;
  size_t support = 0;
  for (uint64_t count : hist.counts) {
    if (count > 0) ++support;
  }
  const double n = static_cast<double>(hist.total);
  const double denom = n + alpha * static_cast<double>(support);
  double h = 0.0;
  for (uint64_t count : hist.counts) {
    if (count == 0) continue;
    const double p = (static_cast<double>(count) + alpha) / denom;
    h -= p * std::log(p);
  }
  return h;
}

Result<double> DifferentialEntropyKnn(const std::vector<double>& xs, int k) {
  const size_t n = xs.size();
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n <= static_cast<size_t>(k)) {
    return Status::InvalidArgument("need more than k samples for kNN entropy");
  }
  SortedPoints1D sorted(xs);
  double log_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double eps = sorted.KthNeighborDistance(xs[i], k);
    // Repeated values give eps = 0; the continuous-entropy model breaks
    // there, so floor at a tiny spacing (standard practice).
    eps = std::max(eps, 1e-15);
    log_sum += std::log(eps);
  }
  return Digamma(static_cast<double>(n)) - Digamma(static_cast<double>(k)) +
         std::log(2.0) + log_sum / static_cast<double>(n);
}

Result<double> DifferentialEntropySpacing(std::vector<double> xs) {
  const size_t n = xs.size();
  if (n < 2) {
    return Status::InvalidArgument("need at least 2 samples for spacings");
  }
  std::sort(xs.begin(), xs.end());
  double log_sum = 0.0;
  size_t used = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const double spacing = xs[i + 1] - xs[i];
    if (spacing <= 0.0) continue;
    log_sum += std::log(spacing);
    ++used;
  }
  if (used == 0) {
    return Status::InvalidArgument("all sample spacings are zero");
  }
  return log_sum / static_cast<double>(used) +
         Digamma(static_cast<double>(n)) - Digamma(1.0);
}

}  // namespace joinmi
