// Entropy estimators (Section II of the paper): plug-in (MLE) discrete
// entropy with bias-correction variants, and differential entropy from
// nearest-neighbor / spacing statistics. All values are in nats.

#ifndef JOINMI_MI_ENTROPY_H_
#define JOINMI_MI_ENTROPY_H_

#include <vector>

#include "src/common/status.h"
#include "src/mi/histogram.h"

namespace joinmi {

/// \brief Plug-in (maximum likelihood) entropy of a histogram:
/// -sum (Ni/N) log(Ni/N). Biased downward by ~(m-1)/(2N) (Roulston 1999).
double EntropyMLE(const Histogram& hist);

/// \brief Miller–Madow corrected entropy: MLE + (m-1)/(2N) with m = number
/// of observed support points.
double EntropyMillerMadow(const Histogram& hist);

/// \brief Laplace-smoothed plug-in entropy: probabilities estimated as
/// (Ni + alpha) / (N + alpha * m). The Conclusion's suggested alternative
/// for controlling false discoveries.
double EntropyLaplace(const Histogram& hist, double alpha = 1.0);

/// \brief Kozachenko–Leonenko differential entropy of a 1-D sample:
/// H = psi(N) - psi(k) + log(2) + (1/N) sum log(eps_i), where eps_i is the
/// distance to the k-th nearest neighbor. Zero-distance neighbors are
/// handled by flooring eps at a tiny positive value.
Result<double> DifferentialEntropyKnn(const std::vector<double>& xs, int k = 3);

/// \brief One-spacing differential entropy:
/// H ~= (1/(N-1)) sum log(x_(i+1) - x_(i)) + psi(N) - psi(1).
///
/// Note: the paper's Section II prints the correction with the opposite sign
/// (psi(1) - psi(N)); that form diverges to -inf with N, so we implement the
/// standard (Learned-Miller) orientation. Zero spacings are skipped.
Result<double> DifferentialEntropySpacing(std::vector<double> xs);

}  // namespace joinmi

#endif  // JOINMI_MI_ENTROPY_H_
