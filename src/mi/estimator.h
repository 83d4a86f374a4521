// Unified MI-estimation facade. Estimators are pure functions over paired
// samples, so the materialized-join path and the sketch path share them —
// the property the paper's sketches rely on ("can be used with any existing
// sample-based MI estimator").
//
// Every estimate runs on SampleColumns: per observation a u64 value hash
// and, on numeric sides, a double. The sketch scoring kernel gathers those
// columns straight from precomputed per-entry hashes; the Value-based
// EstimateMI/EstimateMIAuto overloads hash and convert their PairedSample
// into the same columns first (PairedColumns). One implementation per
// estimator therefore serves every path, and equal inputs give equal bits
// and equal errors.

#ifndef JOINMI_MI_ESTIMATOR_H_
#define JOINMI_MI_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/table/value.h"

namespace joinmi {

/// \brief Available MI estimators.
enum class MIEstimatorKind : uint8_t {
  kMLE = 0,      ///< plug-in, discrete-discrete
  kMillerMadow,  ///< bias-corrected plug-in
  kLaplace,      ///< Laplace-smoothed plug-in
  kKSG,          ///< Kraskov et al. 2004, continuous-continuous
  kMixedKSG,     ///< Gao et al. 2017, mixtures
  kDCKSG,        ///< Ross 2014, discrete-continuous
};

const char* MIEstimatorKindToString(MIEstimatorKind kind);
Result<MIEstimatorKind> MIEstimatorKindFromString(const std::string& name);

/// \brief Estimation options.
struct MIOptions {
  /// Neighbor count for the KSG family.
  int k = 3;
  /// Laplace smoothing strength (kLaplace only).
  double laplace_alpha = 1.0;
  /// If > 0, add Gaussian noise of this magnitude to continuous inputs to
  /// break ties before KSG (the paper's perturbation device, Section V-A).
  double perturb_sigma = 0.0;
  /// Seed for the perturbation noise.
  uint64_t perturb_seed = 0x7E57AB1EULL;
};

/// \brief A paired sample of (feature, target) observations.
struct PairedSample {
  std::vector<Value> x;
  std::vector<Value> y;

  size_t size() const { return x.size(); }
};

/// \brief What a set of values holds, by type — the sample-type inference
/// every path shares: a side is numeric iff all of its values are numeric.
/// Summarizing a whole sketch tells the numeric-ness of any non-empty subset
/// of it whenever the sketch is homogeneous (all numeric, or no numeric and
/// no null), which is what lets the scoring kernel skip scanning the train
/// values it gathers.
struct ValueTypes {
  bool all_numeric = true;  ///< vacuously true when empty
  bool any_numeric = false;
  bool has_null = false;

  void Add(const Value& value) {
    const bool numeric = IsNumeric(value.type());
    all_numeric = all_numeric && numeric;
    any_numeric = any_numeric || numeric;
    has_null = has_null || value.is_null();
  }
  /// \brief True when every non-empty subset has these same types.
  bool homogeneous() const {
    return all_numeric || (!any_numeric && !has_null);
  }
};

/// \brief A paired sample in typed columns, the form every estimator runs
/// on. `x_hashes[i]` is Value::Hash() of the i-th x (the identity the
/// discrete estimators code by) and `x_numbers[i]` its numeric value, read
/// only when x is numeric (PairedColumns leaves it null otherwise);
/// likewise for y.
struct SampleColumns {
  size_t size = 0;
  const uint64_t* x_hashes = nullptr;
  const double* x_numbers = nullptr;
  const uint64_t* y_hashes = nullptr;
  const double* y_numbers = nullptr;
  ValueTypes x_types;
  ValueTypes y_types;
};

/// \brief Owns the typed columns of a PairedSample — the adapter every
/// Value-based entry point scores through. Not copyable, so the
/// SampleColumns it hands out cannot outlive or alias its storage.
class PairedColumns {
 public:
  PairedColumns() = default;
  PairedColumns(const PairedColumns&) = delete;
  PairedColumns& operator=(const PairedColumns&) = delete;

  /// \brief Hashes and converts `sample` into this buffer. The returned
  /// columns stay valid until the next Fill or this buffer's destruction.
  /// InvalidArgument if the sides differ in length.
  Result<SampleColumns> Fill(const PairedSample& sample);

 private:
  std::vector<uint64_t> x_hashes_, y_hashes_;
  std::vector<double> x_numbers_, y_numbers_;
};

/// \brief The paper's estimator-selection policy (Section V): string x
/// string -> MLE; numeric x numeric -> MixedKSG; mixed -> DC-KSG.
Result<MIEstimatorKind> ChooseEstimator(DataType x_type, DataType y_type);

/// \brief ChooseEstimator applied to the inferred side types.
Result<MIEstimatorKind> ChooseEstimatorForSample(const SampleColumns& sample);

/// \brief The fewest pairs `kind` estimates from, for neighbour count `k`
/// (MIOptions::k): more than k for KSG and MixedKSG, 2 for DC-KSG, 1 for
/// the plug-in estimators. Each estimator refuses a smaller sample with
/// InvalidArgument.
size_t MinimumSamples(MIEstimatorKind kind, int k);

/// \brief Estimates MI (in nats) over the paired sample with the given
/// estimator. Type requirements:
///  - kMLE/kMillerMadow/kLaplace: any hashable values on both sides;
///  - kKSG/kMixedKSG: numeric on both sides;
///  - kDCKSG: exactly one side numeric (the discrete side may be anything;
///    if both sides are eligible, X is treated as discrete).
Result<double> EstimateMI(MIEstimatorKind kind, const SampleColumns& sample,
                          const MIOptions& options = {});
Result<double> EstimateMI(MIEstimatorKind kind, const PairedSample& sample,
                          const MIOptions& options = {});

/// \brief Auto-selecting wrapper: infers the value types from the sample and
/// dispatches per ChooseEstimator.
Result<double> EstimateMIAuto(const PairedSample& sample,
                              const MIOptions& options = {});

/// \brief Adds seeded Gaussian noise to break ties (paper Section V-A).
std::vector<double> PerturbForTies(const std::vector<double>& xs, double sigma,
                                   uint64_t seed);
/// \brief out[i] = xs[i] + noise_i, the same noise as the vector form.
void PerturbForTies(const double* xs, size_t n, double sigma, uint64_t seed,
                    double* out);

}  // namespace joinmi

#endif  // JOINMI_MI_ESTIMATOR_H_
