// Special functions and numeric helpers used by entropy / MI estimators and
// the synthetic-data generators.

#ifndef JOINMI_COMMON_MATH_H_
#define JOINMI_COMMON_MATH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace joinmi {

/// Natural log of 2; used to convert between nats and bits.
inline constexpr double kLn2 = 0.6931471805599453094;

/// \brief Digamma function psi(x) = d/dx ln Gamma(x), for x > 0.
///
/// Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument above 6,
/// then the asymptotic series. Absolute error < 1e-12 for x >= 1e-3, which is
/// far below the statistical error of any kNN entropy estimate.
double Digamma(double x);

/// \brief Digamma(n) and std::log(n) at an integer argument n >= 0 — the
/// arguments the kNN estimators evaluate them at (neighbour counts). Read
/// from tables below kIntTableSize, computed above it; either way bitwise
/// equal to Digamma(double(n)) / std::log(double(n)).
inline constexpr size_t kIntTableSize = 1024;
double DigammaOfInt(size_t n);
double LogOfInt(size_t n);

/// \brief ln n! via lgamma.
double LogFactorial(uint64_t n);

/// \brief ln C(n, k). Returns -inf when k > n.
double LogBinomial(uint64_t n, uint64_t k);

/// \brief x * ln x with the measure-theoretic convention 0 * ln 0 = 0.
double XLogX(double x);

/// \brief The n-th harmonic number H_n = sum_{i=1..n} 1/i.
double HarmonicNumber(uint64_t n);

/// \brief MI of a bivariate normal with correlation r (in nats):
/// I = -0.5 ln(1 - r^2). Used by the Trinomial parameter-selection step.
double BivariateNormalMI(double r);

/// \brief Inverse of BivariateNormalMI: |r| = sqrt(1 - exp(-2 I)).
double CorrelationForMI(double mi);

/// \brief log(sum(exp(x_i))) computed stably.
double LogSumExp(const std::vector<double>& xs);

}  // namespace joinmi

#endif  // JOINMI_COMMON_MATH_H_
