#include "src/sketch/sketch_join.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/arena.h"

namespace joinmi {

namespace {

// The scoring tail after the min_join_size guard, shared by the Value
// reference (ScoreSketchJoinSample) and the merge kernel.
Result<SketchMIResult> ScoreColumns(
    const SampleColumns& columns, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator,
    const MIOptions& options) {
  SketchMIResult result;
  result.join_size = join_size;
  if (estimator.has_value()) {
    result.estimator = *estimator;
  } else {
    JOINMI_ASSIGN_OR_RETURN(result.estimator,
                            ChooseEstimatorForSample(columns));
  }
  JOINMI_ASSIGN_OR_RETURN(result.mi,
                          EstimateMI(result.estimator, columns, options));
  return result;
}

}  // namespace

// Preconditions shared by every join entry point: correct sides and equal
// hash seeds. Seeds must match because key hashes drawn from different
// seeds are incomparable — joining them "works" mechanically but returns a
// meaningless sample, which is exactly the failure mode a persisted index
// probed by a misconfigured query would hit silently.
Status CheckJoinable(const Sketch& train, const Sketch& candidate) {
  if (train.side != SketchSide::kTrain) {
    return Status::InvalidArgument(
        "left operand of a sketch join must be a train sketch");
  }
  if (candidate.side != SketchSide::kCandidate) {
    return Status::InvalidArgument(
        "right operand of a sketch join must be a candidate sketch");
  }
  if (train.hash_seed != candidate.hash_seed) {
    return Status::InvalidArgument(
        "sketch hash seeds differ (train " +
        std::to_string(train.hash_seed) + " vs candidate " +
        std::to_string(candidate.hash_seed) +
        "); sketches from different seeds cannot be joined");
  }
  return Status::OK();
}

Status JoinBelowMinimum(size_t join_size, size_t min_join_size) {
  return Status::OutOfRange("sketch join produced " +
                            std::to_string(join_size) +
                            " samples, fewer than the required " +
                            std::to_string(min_join_size));
}

Result<SketchMIResult> ScoreSketchJoinSample(
    const PairedSample& sample, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  // Guard before estimator dispatch: a too-small join is OutOfRange no
  // matter which estimator would have run, and skipping first keeps the
  // common below-cutoff case free of any scoring work.
  if (join_size < min_join_size) {
    return JoinBelowMinimum(join_size, min_join_size);
  }
  PairedColumns buffer;
  JOINMI_ASSIGN_OR_RETURN(SampleColumns columns, buffer.Fill(sample));
  return ScoreColumns(columns, join_size, estimator, options);
}

Result<SketchJoinResult> JoinSketches(const Sketch& train,
                                      const Sketch& candidate) {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train, candidate));
  // Candidate keys are unique post-aggregation; build the probe map on them.
  std::unordered_map<uint64_t, const Value*> aug;
  aug.reserve(candidate.entries.size());
  for (const SketchEntry& entry : candidate.entries) {
    if (!aug.emplace(entry.key_hash, &entry.value).second) {
      return Status::InvalidArgument(
          "candidate sketch has duplicate keys; was it built as a train "
          "sketch?");
    }
  }
  SketchJoinResult result;
  result.sample.x.reserve(train.entries.size());
  result.sample.y.reserve(train.entries.size());
  // A set, not an adjacency counter: this reference stays correct for
  // hand-built or deserialized train sketches that violate the sortedness
  // invariant (TrainKeyRuns::Build rejects those for the merge kernel).
  std::unordered_set<uint64_t> matched;
  matched.reserve(train.entries.size());
  for (const SketchEntry& entry : train.entries) {
    const auto it = aug.find(entry.key_hash);
    if (it == aug.end()) continue;
    result.sample.x.push_back(*it->second);
    result.sample.y.push_back(entry.value);
    matched.insert(entry.key_hash);
  }
  result.join_size = result.sample.size();
  result.matched_keys = matched.size();
  return result;
}

Result<SketchMIResult> EstimateSketchMI(const Sketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options,
                                        size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined,
                          JoinSketches(train, candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, estimator,
                               options, min_join_size);
}

Result<SketchMIResult> EstimateSketchMIAuto(const Sketch& train,
                                            const Sketch& candidate,
                                            const MIOptions& options,
                                            size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined,
                          JoinSketches(train, candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, std::nullopt,
                               options, min_join_size);
}

Result<TrainKeyRuns> TrainKeyRuns::Build(const Sketch& train) {
  if (train.entries.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("train sketch exceeds the run index limit");
  }
  TrainKeyRuns runs;
  const std::vector<SketchEntry>& entries = train.entries;
  for (uint32_t i = 0; i < entries.size();) {
    const uint64_t key = entries[i].key_hash;
    if (!runs.keys.empty() && key <= runs.keys.back()) {
      return Status::InvalidArgument(
          "train sketch entries are not sorted by key_hash");
    }
    uint32_t end = i + 1;
    while (end < entries.size() && entries[end].key_hash == key) ++end;
    runs.keys.push_back(key);
    runs.spans.emplace_back(i, end);
    i = end;
  }
  runs.hashes.reserve(entries.size());
  runs.numbers.reserve(entries.size());
  for (const SketchEntry& entry : entries) {
    runs.hashes.push_back(entry.value.Hash());
    runs.numbers.push_back(entry.value.NumericOr(0.0));
    runs.types.Add(entry.value);
  }
  return runs;
}

Status AppendCandidateKeys(const Sketch& candidate,
                           std::vector<uint64_t>* keys) {
  if (candidate.side != SketchSide::kCandidate) {
    return Status::InvalidArgument(
        "expected a candidate-side sketch, got a train sketch");
  }
  const std::vector<SketchEntry>& entries = candidate.entries;
  if (entries.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "candidate sketch exceeds the merge kernel's entry limit");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].key_hash <= entries[i - 1].key_hash) {
      if (entries[i].key_hash == entries[i - 1].key_hash) {
        return Status::InvalidArgument(
            "candidate sketch has duplicate keys; was it built as a train "
            "sketch?");
      }
      return Status::InvalidArgument(
          "candidate sketch entries are not sorted by key_hash");
    }
    keys->push_back(entries[i].key_hash);
  }
  return Status::OK();
}

void AppendValueHashes(const Sketch& candidate,
                       std::vector<uint64_t>* hashes) {
  for (const SketchEntry& entry : candidate.entries) {
    hashes->push_back(entry.value.Hash());
  }
}

Result<CandidateColumns> ScratchCandidateColumns(const Sketch& candidate) {
  thread_local std::vector<uint64_t> keys, value_hashes;
  keys.clear();
  value_hashes.clear();
  JOINMI_RETURN_NOT_OK(AppendCandidateKeys(candidate, &keys));
  AppendValueHashes(candidate, &value_hashes);
  CandidateColumns columns;
  columns.keys = keys.data();
  columns.value_hashes = value_hashes.data();
  return columns;
}

MergeJoinScore ScoreMergeJoin(const Sketch& train, const TrainKeyRuns& runs,
                              const Sketch& candidate,
                              const CandidateColumns& columns,
                              const std::optional<MIEstimatorKind>& estimator,
                              const MIOptions& options, size_t min_join_size) {
  thread_local Arena arena;
  thread_local std::vector<uint64_t> x_hashes, y_hashes;
  thread_local std::vector<double> x_numbers, y_numbers;
  arena.Reset();

  struct MatchRun {
    uint32_t begin;
    uint32_t end;
    uint32_t local;
  };
  const size_t num_runs = runs.keys.size();
  const size_t cand_len = candidate.entries.size();
  MatchRun* matches =
      arena.AllocateArray<MatchRun>(std::min(num_runs, cand_len));
  size_t num_matches = 0;
  MergeJoinScore score;
  // Both key arrays ascend, so the intersection is a linear merge over two
  // contiguous u64 arrays — no hashing, no pointer chasing. Matches fall
  // out in ascending key order, which is train-entry order: the order
  // JoinSketches emits.
  const uint64_t* train_keys = runs.keys.data();
  const uint64_t* candidate_keys = columns.keys;
  size_t i = 0;
  size_t j = 0;
  while (i < num_runs && j < cand_len) {
    const uint64_t tk = train_keys[i];
    const uint64_t ck = candidate_keys[j];
    if (tk < ck) {
      ++i;
    } else if (ck < tk) {
      ++j;
    } else {
      const std::pair<uint32_t, uint32_t>& span = runs.spans[i];
      matches[num_matches++] =
          MatchRun{span.first, span.second, static_cast<uint32_t>(j)};
      score.join_size += span.second - span.first;
      ++i;
      ++j;
    }
  }
  if (score.join_size < min_join_size) return score;

  const size_t n = score.join_size;
  if (x_hashes.size() < n) {
    x_hashes.resize(n);
    y_hashes.resize(n);
    x_numbers.resize(n);
    y_numbers.resize(n);
  }
  SampleColumns sample;
  sample.size = n;
  sample.x_hashes = x_hashes.data();
  sample.x_numbers = x_numbers.data();
  sample.y_hashes = y_hashes.data();
  sample.y_numbers = y_numbers.data();
  // The candidate side's types come from the matched values the gather
  // reads anyway. The train side's come from its summary when that is
  // homogeneous — it then gives the types of any non-empty subset — and
  // otherwise from the matched train values, the subset the per-sample
  // inference would see.
  const bool scan_y = !runs.types.homogeneous();
  if (!scan_y) sample.y_types = runs.types;
  size_t p = 0;
  for (size_t m = 0; m < num_matches; ++m) {
    const Value& x = candidate.entries[matches[m].local].value;
    const uint64_t x_hash = columns.value_hashes[matches[m].local];
    const double x_number = x.NumericOr(0.0);
    sample.x_types.Add(x);
    for (uint32_t e = matches[m].begin; e < matches[m].end; ++e, ++p) {
      x_hashes[p] = x_hash;
      x_numbers[p] = x_number;
      y_hashes[p] = runs.hashes[e];
      y_numbers[p] = runs.numbers[e];
      if (scan_y) sample.y_types.Add(train.entries[e].value);
    }
  }
  score.scored = ScoreColumns(sample, n, estimator, options);
  return score;
}

}  // namespace joinmi
