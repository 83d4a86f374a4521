#include "src/mi/entropy.h"

#include <cmath>

namespace joinmi {

double EntropyMLE(const Histogram& hist) {
  if (hist.total == 0) return 0.0;
  const double n = static_cast<double>(hist.total);
  double h = 0.0;
  for (uint64_t count : hist.counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace joinmi
