#include "src/mi/mle.h"

#include <cmath>

#include "src/mi/estimator_internal.h"
#include "src/mi/histogram.h"

namespace joinmi {

namespace {

// Marginal and joint counts of one sample, each in first-appearance order.
struct DiscreteCounts {
  const uint32_t* x;
  size_t mx;
  const uint32_t* y;
  size_t my;
  const uint32_t* xy;
  size_t mxy;
  double n;
};

struct CountScratch {
  KeyCoder x, y, joint;
};

// Counts the sample and returns fn(counts); the counts live in scratch
// until fn returns.
template <typename Fn>
Result<double> WithCounts(const uint64_t* x_keys, const uint64_t* y_keys,
                          size_t n, Fn&& fn) {
  if (n == 0) return Status::InvalidArgument("MI of empty sample");
  return internal::WithScratch<CountScratch>(n, [&](CountScratch& s) {
    s.x.Reset(n);
    s.y.Reset(n);
    s.joint.Reset(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t cx = s.x.Add(x_keys[i]);
      const uint64_t cy = s.y.Add(y_keys[i]);
      s.joint.Add((cx << 32) | cy);
    }
    return fn(DiscreteCounts{s.x.counts(), s.x.size(), s.y.counts(),
                             s.y.size(), s.joint.counts(), s.joint.size(),
                             static_cast<double>(n)});
  });
}

// p log p with p = c / n for the counts c of one n-sample. Sketch-join
// samples are small and their counts mostly 1-3, so each count below
// kMemo has its term computed once, by the same expression, and reused
// across the sample's marginal and joint entropies.
class PlugInTerms {
 public:
  explicit PlugInTerms(double n) : n_(n) {}

  double operator()(uint32_t c) {
    if (c >= kMemo) return Term(c);
    if ((known_ >> c & 1) == 0) {
      memo_[c] = Term(c);
      known_ |= uint64_t{1} << c;
    }
    return memo_[c];
  }

 private:
  static constexpr uint32_t kMemo = 64;

  double Term(uint32_t c) const {
    const double p = static_cast<double>(c) / n_;
    return p * std::log(p);
  }

  double n_;
  uint64_t known_ = 0;
  double memo_[kMemo];
};

// -sum (c/n) log(c/n): EntropyMLE's arithmetic, term for term.
double PlugInEntropy(const uint32_t* counts, size_t m, PlugInTerms& terms) {
  double h = 0.0;
  for (size_t c = 0; c < m; ++c) h -= terms(counts[c]);
  return h;
}

// Value::Hash() of each value: the keys the estimators code by
// (ValueCoder codes by Value::Hash() too).
struct HashedPairs {
  std::vector<uint64_t> x, y;
};

Result<HashedPairs> HashPairs(const std::vector<Value>& xs,
                              const std::vector<Value>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("MI inputs must be paired");
  }
  HashedPairs pairs;
  pairs.x.reserve(xs.size());
  pairs.y.reserve(ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    pairs.x.push_back(xs[i].Hash());
    pairs.y.push_back(ys[i].Hash());
  }
  return pairs;
}

}  // namespace

Result<double> MutualInformationMLE(const uint64_t* x_keys,
                                    const uint64_t* y_keys, size_t n) {
  return WithCounts(x_keys, y_keys, n, [](const DiscreteCounts& counts) {
    PlugInTerms terms(counts.n);
    const double mi = PlugInEntropy(counts.x, counts.mx, terms) +
                      PlugInEntropy(counts.y, counts.my, terms) -
                      PlugInEntropy(counts.xy, counts.mxy, terms);
    // Plug-in MI is non-negative analytically; clamp away float round-off.
    return mi < 0.0 ? 0.0 : mi;
  });
}

Result<double> MutualInformationMillerMadow(const uint64_t* x_keys,
                                            const uint64_t* y_keys,
                                            size_t n) {
  return WithCounts(x_keys, y_keys, n, [](const DiscreteCounts& counts) {
    // Each entropy term gets its own (m - 1) / (2N) support correction.
    PlugInTerms terms(counts.n);
    auto corrected = [&counts, &terms](const uint32_t* c, size_t m) {
      return PlugInEntropy(c, m, terms) +
             (static_cast<double>(m) - 1.0) / (2.0 * counts.n);
    };
    const double mi = corrected(counts.x, counts.mx) +
                      corrected(counts.y, counts.my) -
                      corrected(counts.xy, counts.mxy);
    return mi < 0.0 ? 0.0 : mi;
  });
}

Result<double> MutualInformationLaplace(const uint64_t* x_keys,
                                        const uint64_t* y_keys, size_t n,
                                        double alpha) {
  if (alpha < 0.0) {
    return Status::InvalidArgument("Laplace alpha must be >= 0");
  }
  return WithCounts(x_keys, y_keys, n, [alpha](const DiscreteCounts& counts) {
    // Smooth the joint over the product support m_X * m_Y so marginal and
    // joint smoothing are consistent (marginals of the smoothed joint equal
    // the smoothed marginals with alpha' = alpha * m_other).
    const double mx = static_cast<double>(counts.mx);
    const double my = static_cast<double>(counts.my);
    const double denom = counts.n + alpha * mx * my;

    double h_joint = 0.0;
    for (size_t c = 0; c < counts.mxy; ++c) {
      const double p = (static_cast<double>(counts.xy[c]) + alpha) / denom;
      h_joint -= p * std::log(p);
    }
    // Unobserved joint cells each carry probability alpha / denom.
    const double unseen = mx * my - static_cast<double>(counts.mxy);
    if (unseen > 0.0 && alpha > 0.0) {
      const double p = alpha / denom;
      h_joint -= unseen * p * std::log(p);
    }

    auto smoothed_marginal = [alpha, denom](const uint32_t* c, size_t m,
                                            double other_m) {
      double h = 0.0;
      for (size_t i = 0; i < m; ++i) {
        const double p = (static_cast<double>(c[i]) + alpha * other_m) / denom;
        if (p > 0.0) h -= p * std::log(p);
      }
      return h;
    };
    const double mi = smoothed_marginal(counts.x, counts.mx, my) +
                      smoothed_marginal(counts.y, counts.my, mx) - h_joint;
    return mi < 0.0 ? 0.0 : mi;
  });
}

Result<double> MutualInformationMLE(const std::vector<Value>& xs,
                                    const std::vector<Value>& ys) {
  JOINMI_ASSIGN_OR_RETURN(HashedPairs keys, HashPairs(xs, ys));
  return MutualInformationMLE(keys.x.data(), keys.y.data(), xs.size());
}

Result<double> MutualInformationMillerMadow(const std::vector<Value>& xs,
                                            const std::vector<Value>& ys) {
  JOINMI_ASSIGN_OR_RETURN(HashedPairs keys, HashPairs(xs, ys));
  return MutualInformationMillerMadow(keys.x.data(), keys.y.data(),
                                      xs.size());
}

Result<double> MutualInformationLaplace(const std::vector<Value>& xs,
                                        const std::vector<Value>& ys,
                                        double alpha) {
  if (alpha < 0.0) {
    return Status::InvalidArgument("Laplace alpha must be >= 0");
  }
  JOINMI_ASSIGN_OR_RETURN(HashedPairs keys, HashPairs(xs, ys));
  return MutualInformationLaplace(keys.x.data(), keys.y.data(), xs.size(),
                                  alpha);
}

}  // namespace joinmi
