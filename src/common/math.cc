#include "src/common/math.h"

#include <algorithm>
#include <limits>

namespace joinmi {

double Digamma(double x) {
  if (x <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  double result = 0.0;
  // Recurrence until the asymptotic expansion is accurate.
  while (x < 8.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic series: psi(x) ~ ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4)
  //                    - 1/(252x^6) + 1/(240x^8) - 1/(132x^10) + ...
  // Truncation error < 1e-12 for x >= 8.
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -=
      inv2 * (1.0 / 12.0 -
              inv2 * (1.0 / 120.0 -
                      inv2 * (1.0 / 252.0 -
                              inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))));
  return result;
}

namespace {

struct IntTables {
  double digamma[kIntTableSize];
  double log[kIntTableSize];

  IntTables() {
    for (size_t n = 0; n < kIntTableSize; ++n) {
      digamma[n] = Digamma(static_cast<double>(n));
      log[n] = std::log(static_cast<double>(n));
    }
  }
};

const IntTables& Tables() {
  static const IntTables tables;
  return tables;
}

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

double DigammaOfInt(size_t n) {
  return n < kIntTableSize ? Tables().digamma[n]
                           : Digamma(static_cast<double>(n));
}

double LogOfInt(size_t n) {
  return n < kIntTableSize ? Tables().log[n] : std::log(static_cast<double>(n));
}

double LogFactorial(uint64_t n) {
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double LogBinomial(uint64_t n, uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

double XLogX(double x) { return x <= 0.0 ? 0.0 : x * std::log(x); }

double HarmonicNumber(uint64_t n) {
  // Exact summation below a threshold; asymptotic expansion above (the
  // crossover keeps both branches < 1e-12 absolute error).
  if (n == 0) return 0.0;
  if (n < 256) {
    double h = 0.0;
    for (uint64_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  constexpr double kEulerMascheroni = 0.5772156649015328606;
  const double x = static_cast<double>(n);
  const double inv2 = 1.0 / (x * x);
  return std::log(x) + kEulerMascheroni + 1.0 / (2.0 * x) -
         inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0));
}

double BivariateNormalMI(double r) {
  const double r2 = Clamp(r * r, 0.0, 1.0 - 1e-15);
  return -0.5 * std::log1p(-r2);
}

double CorrelationForMI(double mi) {
  if (mi <= 0.0) return 0.0;
  return std::sqrt(1.0 - std::exp(-2.0 * mi));
}

double LogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - m);
  return m + std::log(sum);
}

}  // namespace joinmi
