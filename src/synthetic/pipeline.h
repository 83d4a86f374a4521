// End-to-end synthetic experiment generation: draw distribution parameters
// with a known analytic MI, sample N joined rows, and decompose them into a
// joinable (T_train, T_cand) pair. One call produces everything a benchmark
// trial needs.

#ifndef JOINMI_SYNTHETIC_PIPELINE_H_
#define JOINMI_SYNTHETIC_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/synthetic/decompose.h"
#include "src/synthetic/trinomial.h"

namespace joinmi {

/// \brief Available synthetic distributions (Section V-A).
enum class SyntheticDistribution : uint8_t {
  kTrinomial = 0,
  kCDUnif,
};

/// \brief One experiment specification.
struct SyntheticSpec {
  SyntheticDistribution distribution = SyntheticDistribution::kTrinomial;
  /// Trinomial: number of trials; CDUnif: support size of X.
  uint64_t m = 512;
  /// Rows of the (conceptual) joined table == rows of T_train.
  size_t num_rows = 10000;
  KeyScheme key_scheme = KeyScheme::kKeyInd;
  uint64_t seed = 1;
  /// Trinomial only: target-MI range for parameter selection.
  double min_mi = 0.0;
  double max_mi = 3.5;
};

/// \brief A generated dataset with its ground truth.
struct SyntheticDataset {
  SyntheticSpec spec;
  /// Exact MI of the generating distribution, in nats.
  double true_mi = 0.0;
  /// The post-join attribute columns, in generation order.
  std::vector<Value> xs;
  std::vector<Value> ys;
  /// The decomposed joinable tables.
  DecomposedTables tables;
};

/// \brief Generates a dataset per the spec. KeyDep with CDUnif is rejected
/// (the paper notes KeyDep applies only when X is discrete — CDUnif's X is
/// discrete, so it IS allowed; continuous-X schemes are the rejected case).
Result<SyntheticDataset> GenerateSyntheticDataset(const SyntheticSpec& spec);

}  // namespace joinmi

#endif  // JOINMI_SYNTHETIC_PIPELINE_H_
