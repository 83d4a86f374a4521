// A naive reference for the sketch join, shared by the tests that check
// the scoring kernel against it. It joins a train and a candidate sketch
// by comparing every train entry with every candidate entry (O(n·m)),
// reads each matched value from the sketches' columns itself, and scores
// the pairs through the public estimator entry points. It shares no code
// with JoinSketches, GatherAndScore or the index's postings, so a kernel
// that drops, reorders or mis-decodes a pair disagrees with it.

#ifndef JOINMI_TESTS_NAIVE_JOIN_REFERENCE_H_
#define JOINMI_TESTS_NAIVE_JOIN_REFERENCE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mi/estimator.h"
#include "src/sketch/sketch.h"

namespace joinmi {

/// \brief One side of the naive join's sample, decoded from entry i's
/// value word: a number's word is its double's bits, anything else's its
/// Value::Hash(); the type column, when present, says which.
struct NaiveValue {
  DataType type;
  uint64_t hash;
  double number;
};

inline NaiveValue NaiveDecode(const Sketch& sketch, size_t i) {
  DataType type = DataType::kString;
  if (!sketch.mixed_types.empty()) {
    type = sketch.mixed_types[i];
  } else if (sketch.value_types.all_numeric) {
    type = DataType::kDouble;
  }
  const uint64_t word = sketch.value_words[i];
  if (type != DataType::kDouble) return NaiveValue{type, word, 0.0};
  double number;
  std::memcpy(&number, &word, sizeof(number));
  return NaiveValue{type, NumericValueHash(number), number};
}

/// \brief The outcome the naive join gives: OutOfRange below
/// `min_join_size` or the estimator's minimum sample, otherwise the
/// estimator's (`estimator`, or the auto choice on the pairs' types) MI or
/// error, with the join size.
struct NaiveOutcome {
  size_t join_size = 0;
  Status status;
  double mi = 0.0;
  MIEstimatorKind estimator = MIEstimatorKind::kMLE;
};

inline NaiveOutcome NaiveJoinScore(
    const Sketch& train, const Sketch& candidate,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  std::vector<uint64_t> x_hashes, y_hashes;
  std::vector<double> x_numbers, y_numbers;
  SampleColumns columns;
  for (size_t e = 0; e < train.size(); ++e) {
    for (size_t j = 0; j < candidate.size(); ++j) {
      if (train.key_hashes[e] != candidate.key_hashes[j]) continue;
      const NaiveValue x = NaiveDecode(candidate, j);
      const NaiveValue y = NaiveDecode(train, e);
      x_hashes.push_back(x.hash);
      x_numbers.push_back(x.number);
      y_hashes.push_back(y.hash);
      y_numbers.push_back(y.number);
      columns.x_types.Add(x.type);
      columns.y_types.Add(y.type);
    }
  }
  NaiveOutcome outcome;
  outcome.join_size = x_hashes.size();
  if (outcome.join_size == 0 || outcome.join_size < min_join_size) {
    outcome.status = Status::OutOfRange("join below the minimum");
    return outcome;
  }
  columns.size = outcome.join_size;
  columns.x_hashes = x_hashes.data();
  columns.x_numbers = x_numbers.data();
  columns.y_hashes = y_hashes.data();
  columns.y_numbers = y_numbers.data();
  if (estimator.has_value()) {
    outcome.estimator = *estimator;
  } else {
    Result<MIEstimatorKind> chosen = ChooseEstimatorForSample(columns);
    if (!chosen.ok()) {
      outcome.status = chosen.status();
      return outcome;
    }
    outcome.estimator = *chosen;
  }
  if (outcome.join_size < MinimumSamples(outcome.estimator, options.k)) {
    outcome.status = Status::OutOfRange("sample below the estimator minimum");
    return outcome;
  }
  Result<double> mi = EstimateMI(outcome.estimator, columns, options);
  outcome.status = mi.status();
  if (mi.ok()) outcome.mi = *mi;
  return outcome;
}

}  // namespace joinmi

#endif  // JOINMI_TESTS_NAIVE_JOIN_REFERENCE_H_
