#include "src/synthetic/pipeline.h"

#include "src/synthetic/cdunif.h"

namespace joinmi {

Result<SyntheticDataset> GenerateSyntheticDataset(const SyntheticSpec& spec) {
  if (spec.num_rows == 0) {
    return Status::InvalidArgument("num_rows must be positive");
  }
  Rng rng(spec.seed);
  SyntheticDataset dataset;
  dataset.spec = spec;

  switch (spec.distribution) {
    case SyntheticDistribution::kTrinomial: {
      JOINMI_ASSIGN_OR_RETURN(
          TrinomialParams params,
          SampleTrinomialParams(spec.m, rng, spec.min_mi, spec.max_mi));
      dataset.true_mi = params.true_mi;
      std::vector<int64_t> xs, ys;
      SampleTrinomial(params, spec.num_rows, rng, &xs, &ys);
      dataset.xs.reserve(xs.size());
      dataset.ys.reserve(ys.size());
      for (int64_t x : xs) dataset.xs.emplace_back(x);
      for (int64_t y : ys) dataset.ys.emplace_back(y);
      break;
    }
    case SyntheticDistribution::kCDUnif: {
      dataset.true_mi = CDUnifExactMI(spec.m);
      std::vector<int64_t> xs;
      std::vector<double> ys;
      JOINMI_RETURN_NOT_OK(SampleCDUnif(spec.m, spec.num_rows, rng, &xs, &ys));
      dataset.xs.reserve(xs.size());
      dataset.ys.reserve(ys.size());
      for (int64_t x : xs) dataset.xs.emplace_back(x);
      for (double y : ys) dataset.ys.emplace_back(y);
      break;
    }
  }
  JOINMI_ASSIGN_OR_RETURN(
      dataset.tables,
      DecomposeIntoTables(dataset.xs, dataset.ys, spec.key_scheme));
  return dataset;
}

}  // namespace joinmi
