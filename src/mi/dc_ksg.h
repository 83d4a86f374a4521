// DC-KSG estimator (Ross, PLoS ONE 2014) for MI between a discrete variable
// X and a continuous variable Y:
//   I = psi(N) + <psi(k_i)> - <psi(N_xi)> - <psi(m_i + 1)>
// where N_xi is the multiplicity of sample i's discrete value, d_i is the
// distance to the k_i-th nearest neighbor among samples sharing that value
// (k_i = min(k, N_xi - 1)), and m_i counts samples of any class strictly
// within d_i. Samples whose class is unique are dropped (no within-class
// neighbor exists), matching the scikit-learn implementation the paper uses.

#ifndef JOINMI_MI_DC_KSG_H_
#define JOINMI_MI_DC_KSG_H_

#include <vector>

#include "src/common/status.h"
#include "src/table/value.h"

namespace joinmi {

/// \brief DC-KSG MI estimate in nats over n paired observations: X
/// discrete, given as one u64 class key per observation (equal keys, same
/// class — e.g. Value::Hash()), Y continuous. OutOfRange when no discrete
/// value repeats: with every sample dropped there is nothing to estimate.
Result<double> MutualInformationDCKSG(const uint64_t* x_keys, const double* ys,
                                      size_t n, int k = 3);

/// \brief X discrete as any hashable Value, Y continuous.
Result<double> MutualInformationDCKSG(const std::vector<Value>& xs_discrete,
                                      const std::vector<double>& ys,
                                      int k = 3);

/// \brief Convenience overload for numeric-coded discrete X.
Result<double> MutualInformationDCKSG(const std::vector<uint32_t>& x_codes,
                                      const std::vector<double>& ys, int k = 3);

}  // namespace joinmi

#endif  // JOINMI_MI_DC_KSG_H_
