// The plug-in (MLE) discrete entropy of Section II of the paper, in nats.
// The MI estimators in mle.h compute the same sums inline.

#ifndef JOINMI_MI_ENTROPY_H_
#define JOINMI_MI_ENTROPY_H_

#include "src/mi/histogram.h"

namespace joinmi {

/// \brief Plug-in (maximum likelihood) entropy of a histogram:
/// -sum (Ni/N) log(Ni/N). Biased downward by ~(m-1)/(2N) (Roulston 1999).
double EntropyMLE(const Histogram& hist);

}  // namespace joinmi

#endif  // JOINMI_MI_ENTROPY_H_
