// MixedKSG estimator (Gao, Kannan, Oh, Viswanath, NeurIPS 2017) for MI
// between variables whose distributions may be continuous, discrete, or
// discrete-continuous mixtures (e.g., join-derived features with repeated
// values). Recovers the plug-in estimator on purely discrete regions and
// KSG-like behavior on continuous regions:
//   I = (1/N) sum_i [ psi(k~_i) + log N - log(n_x,i) - log(n_y,i) ]
// with k~_i = #coincident points when the k-th neighbor distance is zero,
// and n counts taken over closed balls (self included).

#ifndef JOINMI_MI_MIXED_KSG_H_
#define JOINMI_MI_MIXED_KSG_H_

#include <vector>

#include "src/common/status.h"

namespace joinmi {

/// \brief MixedKSG MI estimate in nats over n paired observations. Requires
/// n > k. Handles ties natively; no perturbation needed.
Result<double> MutualInformationMixedKSG(const double* xs, const double* ys,
                                         size_t n, int k = 3);

/// \brief Vector form of the above.
Result<double> MutualInformationMixedKSG(const std::vector<double>& xs,
                                         const std::vector<double>& ys,
                                         int k = 3);

}  // namespace joinmi

#endif  // JOINMI_MI_MIXED_KSG_H_
