#include "src/mi/dc_ksg.h"

#include <algorithm>
#include <cmath>

#include "src/common/math.h"
#include "src/mi/estimator.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/histogram.h"
#include "src/mi/knn.h"

namespace joinmi {

namespace internal {

namespace {

struct DcKsgScratch {
  KeyCoder coder;
  std::vector<uint32_t> cls, class_begin, fill, grouped_index;
  std::vector<uint8_t> keep;
  std::vector<double> grouped, kept_ys, dist, radius, counts;
  SortedPoints1D class_points, kept_points;
};

}  // namespace

Result<double> MutualInformationDCKSG(const uint64_t* x_keys,
                                      const double* ys, size_t n, int k,
                                      NeighborSearch search,
                                      const BruteForceKernel& kernel) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (n < MinimumSamples(MIEstimatorKind::kDCKSG, k)) {
    return Status::InvalidArgument("DC-KSG needs at least 2 samples");
  }
  return WithScratch<DcKsgScratch>(n, [&](DcKsgScratch& s) -> Result<double> {
    // Class codes and sizes. Samples whose class is unique are dropped from
    // the estimate entirely (including the psi(N') term): they have no
    // within-class neighbor.
    if (s.cls.size() < n) {
      s.cls.resize(n);
      s.keep.resize(n);
    }
    s.coder.Reset(n);
    for (size_t i = 0; i < n; ++i) s.cls[i] = s.coder.Add(x_keys[i]);
    const uint32_t* cls = s.cls.data();
    const uint32_t* class_count = s.coder.counts();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      s.keep[i] = class_count[cls[i]] >= 2;
      kept += s.keep[i];
    }
    // Like a sample below MinimumSamples, this is a join too small to
    // estimate (an identifier-like discrete side), not a broken input, so
    // it is OutOfRange and a search counts the candidate as skipped.
    if (kept == 0) {
      return Status::OutOfRange(
          "DC-KSG: every discrete value is unique; no within-class "
          "neighbors");
    }

    // Each class's ys contiguous (a counting sort by class, which also
    // records each slot's sample), and the kept ys apart: within-class
    // neighbours come from the class's slice, m_i from the kept samples.
    const size_t num_classes = s.coder.size();
    s.class_begin.resize(num_classes + 1);
    s.fill.resize(num_classes);
    if (s.grouped.size() < n) {
      s.grouped.resize(n);
      s.grouped_index.resize(n);
      s.kept_ys.resize(n);
    }
    s.class_begin[0] = 0;
    for (size_t c = 0; c < num_classes; ++c) {
      s.class_begin[c + 1] = s.class_begin[c] + class_count[c];
      s.fill[c] = s.class_begin[c];
    }
    size_t next_kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = s.fill[cls[i]]++;
      s.grouped[slot] = ys[i];
      s.grouped_index[slot] = static_cast<uint32_t>(i);
      if (s.keep[i]) s.kept_ys[next_kept++] = ys[i];
    }

    // Per kept sample: d_i, the distance to its k_i-th within-class
    // neighbor, and m_i, the kept samples of any class strictly within d_i,
    // itself excluded (scikit-learn drops unique-class points before
    // building its KDTree, and shrinks the radius with nextafter to turn
    // the closed query into an open one; strict counting over kept points
    // is equivalent). Sums run in sample order on both paths.
    auto k_of = [&](size_t i) {
      return std::min<int>(k, static_cast<int>(class_count[cls[i]]) - 1);
    };
    double acc_k = 0.0, acc_class = 0.0, acc_m = 0.0;
    auto add = [&](size_t i, int ki, size_t m_i) {
      acc_k += DigammaOfInt(static_cast<size_t>(ki));
      acc_class += DigammaOfInt(class_count[cls[i]]);
      acc_m += DigammaOfInt(m_i + 1);
    };
    if (s.radius.size() < n) s.radius.resize(n);
    if (UseBruteForce(search, n, kernel.dc_ksg_max_points)) {
      // Radii in kept order, then m_i for all of them by the kernel's
      // counting pass over the kept ys.
      if (s.dist.size() < n) {
        s.dist.resize(n);
        s.counts.resize(n);
      }
      double* dist = s.dist.data();
      size_t q = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!s.keep[i]) continue;
        const uint32_t c = cls[i];
        const size_t count = class_count[c];
        const double yi = ys[i];
        const double* members = s.grouped.data() + s.class_begin[c];
        for (size_t j = 0; j < count; ++j) dist[j] = std::fabs(members[j] - yi);
        // The members include the sample itself at distance 0, below every
        // other, so its ki-th neighbour is the (ki + 1)-th smallest.
        s.radius[q++] = KthSmallest(dist, count, k_of(i) + 1);
      }
      kernel.interval_counts(s.kept_ys.data(), kept, s.radius.data(),
                             /*equal_at_zero=*/false, s.counts.data());
      q = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!s.keep[i]) continue;
        size_t m_i = static_cast<size_t>(s.counts[q]);
        // SortedPoints1D excludes one copy of the point itself whenever the
        // open ball is non-empty.
        if (s.radius[q++] > 0.0) m_i -= m_i > 0;
        add(i, k_of(i), m_i);
      }
    } else {
      // One sorted set at a time: each kept sample's radius from its
      // class's set, then the sums in sample order over the kept set.
      for (size_t c = 0; c < num_classes; ++c) {
        if (class_count[c] < 2) continue;
        const size_t begin = s.class_begin[c];
        const size_t end = s.class_begin[c + 1];
        s.class_points.Assign(s.grouped.data() + begin, end - begin);
        for (size_t slot = begin; slot < end; ++slot) {
          const size_t i = s.grouped_index[slot];
          s.radius[i] = s.class_points.KthNeighborDistance(ys[i], k_of(i));
        }
      }
      s.kept_points.Assign(s.kept_ys.data(), kept);
      for (size_t i = 0; i < n; ++i) {
        if (!s.keep[i]) continue;
        add(i, k_of(i),
            s.kept_points.CountWithin(ys[i], s.radius[i], /*strict=*/true));
      }
    }
    const double inv = 1.0 / static_cast<double>(kept);
    const double mi = DigammaOfInt(kept) + inv * acc_k - inv * acc_class -
                      inv * acc_m;
    return mi < 0.0 ? 0.0 : mi;
  });
}

}  // namespace internal

Result<double> MutualInformationDCKSG(const uint64_t* x_keys, const double* ys,
                                      size_t n, int k) {
  return internal::MutualInformationDCKSG(x_keys, ys, n, k,
                                          internal::NeighborSearch::kAuto);
}

Result<double> MutualInformationDCKSG(const std::vector<Value>& xs_discrete,
                                      const std::vector<double>& ys, int k) {
  if (xs_discrete.size() != ys.size()) {
    return Status::InvalidArgument("MI inputs must be paired");
  }
  std::vector<uint64_t> keys(xs_discrete.size());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = xs_discrete[i].Hash();
  return MutualInformationDCKSG(keys.data(), ys.data(), ys.size(), k);
}

Result<double> MutualInformationDCKSG(const std::vector<uint32_t>& x_codes,
                                      const std::vector<double>& ys, int k) {
  if (x_codes.size() != ys.size()) {
    return Status::InvalidArgument("MI inputs must be paired");
  }
  const std::vector<uint64_t> keys(x_codes.begin(), x_codes.end());
  return MutualInformationDCKSG(keys.data(), ys.data(), ys.size(), k);
}

}  // namespace joinmi
