// KSG estimator (Kraskov, Stögbauer, Grassberger 2004, algorithm 1) for MI
// between continuous variables:
//   I = psi(k) + psi(N) - < psi(n_x + 1) + psi(n_y + 1) >
// where eps_i is the Chebyshev distance to the k-th neighbor in joint space
// and n_x / n_y count marginal neighbors strictly inside eps_i.

#ifndef JOINMI_MI_KSG_H_
#define JOINMI_MI_KSG_H_

#include <vector>

#include "src/common/status.h"

namespace joinmi {

/// \brief KSG-1 MI estimate in nats over n paired observations. Requires
/// n > k. Neighbours are found by brute force on small samples and with
/// SortedPoints1D/KdTree2D above that; both give the same bits.
///
/// Ties in the data yield eps_i = 0 for some points, which degrades the
/// estimate (the KSG model assumes continuous marginals); callers should
/// perturb tied data or use MixedKSG.
Result<double> MutualInformationKSG(const double* xs, const double* ys,
                                    size_t n, int k = 3);

/// \brief Vector form of the above.
Result<double> MutualInformationKSG(const std::vector<double>& xs,
                                    const std::vector<double>& ys, int k = 3);

}  // namespace joinmi

#endif  // JOINMI_MI_KSG_H_
