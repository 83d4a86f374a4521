#include "src/mi/estimator.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/mi/dc_ksg.h"
#include "src/mi/estimator_internal.h"
#include "src/mi/ksg.h"
#include "src/mi/mixed_ksg.h"
#include "src/mi/mle.h"

namespace joinmi {

const char* MIEstimatorKindToString(MIEstimatorKind kind) {
  switch (kind) {
    case MIEstimatorKind::kMLE:
      return "MLE";
    case MIEstimatorKind::kMillerMadow:
      return "MillerMadow";
    case MIEstimatorKind::kLaplace:
      return "Laplace";
    case MIEstimatorKind::kKSG:
      return "KSG";
    case MIEstimatorKind::kMixedKSG:
      return "MixedKSG";
    case MIEstimatorKind::kDCKSG:
      return "DC-KSG";
  }
  return "unknown";
}

Result<MIEstimatorKind> MIEstimatorKindFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "mle") return MIEstimatorKind::kMLE;
  if (lower == "millermadow" || lower == "miller-madow") {
    return MIEstimatorKind::kMillerMadow;
  }
  if (lower == "laplace") return MIEstimatorKind::kLaplace;
  if (lower == "ksg") return MIEstimatorKind::kKSG;
  if (lower == "mixedksg" || lower == "mixed-ksg") {
    return MIEstimatorKind::kMixedKSG;
  }
  if (lower == "dcksg" || lower == "dc-ksg") return MIEstimatorKind::kDCKSG;
  return Status::InvalidArgument("unknown MI estimator '" + name + "'");
}

size_t MinimumSamples(MIEstimatorKind kind, int k) {
  switch (kind) {
    case MIEstimatorKind::kKSG:
    case MIEstimatorKind::kMixedKSG:
      return static_cast<size_t>(std::max(k, 0)) + 1;
    case MIEstimatorKind::kDCKSG:
      return 2;
    case MIEstimatorKind::kMLE:
    case MIEstimatorKind::kMillerMadow:
    case MIEstimatorKind::kLaplace:
      return 1;
  }
  return 1;
}

Result<MIEstimatorKind> ChooseEstimator(DataType x_type, DataType y_type) {
  const bool x_num = IsNumeric(x_type);
  const bool y_num = IsNumeric(y_type);
  if (x_type == DataType::kNull || y_type == DataType::kNull) {
    return Status::TypeError("cannot choose an estimator for null columns");
  }
  if (!x_num && !y_num) return MIEstimatorKind::kMLE;
  if (x_num && y_num) return MIEstimatorKind::kMixedKSG;
  return MIEstimatorKind::kDCKSG;
}

Result<MIEstimatorKind> ChooseEstimatorForSample(const SampleColumns& sample) {
  return ChooseEstimator(
      sample.x_types.all_numeric ? DataType::kDouble : DataType::kString,
      sample.y_types.all_numeric ? DataType::kDouble : DataType::kString);
}

Result<SampleColumns> PairedColumns::Fill(const PairedSample& sample) {
  if (sample.x.size() != sample.y.size()) {
    return Status::InvalidArgument("paired sample arity mismatch");
  }
  const size_t n = sample.size();
  SampleColumns columns;
  columns.size = n;
  x_hashes_.resize(n);
  y_hashes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    x_hashes_[i] = sample.x[i].Hash();
    y_hashes_[i] = sample.y[i].Hash();
    columns.x_types.Add(sample.x[i]);
    columns.y_types.Add(sample.y[i]);
  }
  columns.x_hashes = x_hashes_.data();
  columns.y_hashes = y_hashes_.data();
  // Numbers are only read on numeric sides, so only those get a column.
  auto numbers = [n](const std::vector<Value>& values, const ValueTypes& types,
                     std::vector<double>* out) -> const double* {
    if (!types.all_numeric) return nullptr;
    out->resize(n);
    for (size_t i = 0; i < n; ++i) (*out)[i] = values[i].NumericOr(0.0);
    return out->data();
  };
  columns.x_numbers = numbers(sample.x, columns.x_types, &x_numbers_);
  columns.y_numbers = numbers(sample.y, columns.y_types, &y_numbers_);
  return columns;
}

void PerturbForTies(const double* xs, size_t n, double sigma, uint64_t seed,
                    double* out) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) out[i] = xs[i] + rng.Gaussian(0.0, sigma);
}

std::vector<double> PerturbForTies(const std::vector<double>& xs, double sigma,
                                   uint64_t seed) {
  std::vector<double> out(xs.size());
  PerturbForTies(xs.data(), xs.size(), sigma, seed, out.data());
  return out;
}

namespace {

// One side's numbers for the KSG family: an error unless the side is
// numeric and every number finite, perturbed into `scratch` when options
// ask for tie-breaking. An infinite or NaN distance has no neighbour
// order the estimators could agree on (MixedKSG would return +inf MI, and
// brute force and trees would disagree), so such a sample is rejected.
Result<const double*> NumericSide(const double* numbers,
                                  const ValueTypes& types, size_t n,
                                  const MIOptions& options, uint64_t seed_salt,
                                  std::vector<double>* scratch) {
  if (!types.all_numeric) {
    // Nulls were rejected already, so the first non-numeric value is a
    // string — the message Value::AsDouble gives for one.
    return Status::TypeError("value of type string is not numeric");
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(numbers[i])) {
      return Status::InvalidArgument(
          "the KSG-family estimators need finite numbers; the sample holds " +
          std::to_string(numbers[i]));
    }
  }
  if (options.perturb_sigma <= 0.0) return numbers;
  if (scratch->size() < n) scratch->resize(n);
  PerturbForTies(numbers, n, options.perturb_sigma,
                 options.perturb_seed ^ seed_salt, scratch->data());
  return scratch->data();
}

// Perturbed copies of the numeric sides, when options ask for them.
struct PerturbScratch {
  std::vector<double> x, y;
};

// EstimateMI after its checks, perturbing into `perturbed`.
Result<double> Dispatch(MIEstimatorKind kind, const SampleColumns& sample,
                        const MIOptions& options, PerturbScratch* perturbed) {
  const size_t n = sample.size;
  auto x_side = [&] {
    return NumericSide(sample.x_numbers, sample.x_types, n, options, 0xA,
                       &perturbed->x);
  };
  auto y_side = [&] {
    return NumericSide(sample.y_numbers, sample.y_types, n, options, 0xB,
                       &perturbed->y);
  };
  switch (kind) {
    case MIEstimatorKind::kMLE:
      return MutualInformationMLE(sample.x_hashes, sample.y_hashes, n);
    case MIEstimatorKind::kMillerMadow:
      return MutualInformationMillerMadow(sample.x_hashes, sample.y_hashes, n);
    case MIEstimatorKind::kLaplace:
      return MutualInformationLaplace(sample.x_hashes, sample.y_hashes, n,
                                      options.laplace_alpha);
    case MIEstimatorKind::kKSG: {
      JOINMI_ASSIGN_OR_RETURN(const double* xs, x_side());
      JOINMI_ASSIGN_OR_RETURN(const double* ys, y_side());
      return MutualInformationKSG(xs, ys, n, options.k);
    }
    case MIEstimatorKind::kMixedKSG: {
      // MixedKSG handles ties natively; perturbation (if requested) is
      // still honored for apples-to-apples estimator comparisons.
      JOINMI_ASSIGN_OR_RETURN(const double* xs, x_side());
      JOINMI_ASSIGN_OR_RETURN(const double* ys, y_side());
      return MutualInformationMixedKSG(xs, ys, n, options.k);
    }
    case MIEstimatorKind::kDCKSG: {
      // The numeric side is continuous; the other side is discrete. When
      // both are numeric, X is treated as the discrete side.
      if (sample.y_types.all_numeric) {
        JOINMI_ASSIGN_OR_RETURN(const double* ys, y_side());
        return MutualInformationDCKSG(sample.x_hashes, ys, n, options.k);
      }
      if (sample.x_types.all_numeric) {
        JOINMI_ASSIGN_OR_RETURN(const double* xs, x_side());
        return MutualInformationDCKSG(sample.y_hashes, xs, n, options.k);
      }
      return Status::TypeError("DC-KSG requires one numeric side");
    }
  }
  return Status::InvalidArgument("unknown estimator kind");
}

}  // namespace

Result<double> EstimateMI(MIEstimatorKind kind, const SampleColumns& sample,
                          const MIOptions& options) {
  if (sample.size == 0) {
    return Status::InvalidArgument("empty paired sample");
  }
  if (sample.x_types.has_null || sample.y_types.has_null) {
    return Status::InvalidArgument("paired sample contains nulls");
  }
  return internal::WithScratch<PerturbScratch>(
      sample.size, [&](PerturbScratch& perturbed) {
        return Dispatch(kind, sample, options, &perturbed);
      });
}

Result<double> EstimateMI(MIEstimatorKind kind, const PairedSample& sample,
                          const MIOptions& options) {
  PairedColumns buffer;
  JOINMI_ASSIGN_OR_RETURN(SampleColumns columns, buffer.Fill(sample));
  return EstimateMI(kind, columns, options);
}

Result<double> EstimateMIAuto(const PairedSample& sample,
                              const MIOptions& options) {
  PairedColumns buffer;
  JOINMI_ASSIGN_OR_RETURN(SampleColumns columns, buffer.Fill(sample));
  JOINMI_ASSIGN_OR_RETURN(MIEstimatorKind kind,
                          ChooseEstimatorForSample(columns));
  return EstimateMI(kind, columns, options);
}

}  // namespace joinmi
