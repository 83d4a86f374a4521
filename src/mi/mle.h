// Plug-in (maximum likelihood) mutual information for discrete-discrete data
// via I = H(X) + H(Y) - H(X,Y), plus bias-correction variants.

#ifndef JOINMI_MI_MLE_H_
#define JOINMI_MI_MLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/table/value.h"

namespace joinmi {

// Each estimator runs on n paired value keys: any u64 identity per
// observation, equal keys meaning equal values (Value::Hash(), which the
// Value overloads compute). Scratch is thread-local and reused, so a warmed
// thread estimates sketch-sized samples without heap allocation; larger
// samples use call-local scratch sized by their distinct values. The
// joint-entropy sum runs over cells in first-appearance order.

/// \brief Plug-in MI over n paired value keys.
Result<double> MutualInformationMLE(const uint64_t* x_keys,
                                    const uint64_t* y_keys, size_t n);
Result<double> MutualInformationMillerMadow(const uint64_t* x_keys,
                                            const uint64_t* y_keys, size_t n);
Result<double> MutualInformationLaplace(const uint64_t* x_keys,
                                        const uint64_t* y_keys, size_t n,
                                        double alpha);

/// \brief Plug-in MI over paired type-erased samples. Works for any
/// hashable values (strings, ints, doubles-with-repeats).
Result<double> MutualInformationMLE(const std::vector<Value>& xs,
                                    const std::vector<Value>& ys);

/// \brief Miller–Madow corrected plug-in MI: each entropy term gets its own
/// support-size correction, i.e. I_MM = I_MLE - (m_X + m_Y - m_XY - 1) / (2N).
Result<double> MutualInformationMillerMadow(const std::vector<Value>& xs,
                                            const std::vector<Value>& ys);

/// \brief Laplace-smoothed plug-in MI (smoothed marginal/joint entropies).
Result<double> MutualInformationLaplace(const std::vector<Value>& xs,
                                        const std::vector<Value>& ys,
                                        double alpha = 1.0);

}  // namespace joinmi

#endif  // JOINMI_MI_MLE_H_
