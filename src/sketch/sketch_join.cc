#include "src/sketch/sketch_join.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mi/estimator_internal.h"

namespace joinmi {

namespace {

// The scoring tail after the min_join_size guard, shared by the hash-map
// reference (ScoreSketchJoinSample) and the scoring kernel. A join too
// small for the chosen estimator is an overlap too small to estimate, so
// it is OutOfRange, as a join below min_join_size is; the estimators
// themselves, called directly, refuse it with InvalidArgument.
Result<SketchMIResult> ScoreColumns(
    const SampleColumns& columns, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator,
    const MIOptions& options) {
  // An empty sample is too small for every estimator (and has no types to
  // choose one by).
  if (columns.size == 0) return JoinBelowMinimum(0, 1);
  SketchMIResult result;
  result.join_size = join_size;
  if (estimator.has_value()) {
    result.estimator = *estimator;
  } else {
    JOINMI_ASSIGN_OR_RETURN(result.estimator,
                            ChooseEstimatorForSample(columns));
  }
  const size_t fewest = MinimumSamples(result.estimator, options.k);
  if (columns.size < fewest) {
    return Status::OutOfRange(
        "sketch join produced " + std::to_string(columns.size) +
        " samples; " + MIEstimatorKindToString(result.estimator) +
        " needs at least " + std::to_string(fewest));
  }
  JOINMI_ASSIGN_OR_RETURN(result.mi,
                          EstimateMI(result.estimator, columns, options));
  return result;
}

// Preconditions shared by every join entry point: correct sides and equal
// hash seeds. Seeds must match because key hashes drawn from different
// seeds are incomparable — joining them "works" mechanically but returns a
// meaningless sample, which is exactly the failure mode a persisted index
// probed by a misconfigured query would hit silently.
Status CheckJoinable(const Sketch& train, const Sketch& candidate) {
  JOINMI_RETURN_NOT_OK(train.CheckColumns());
  JOINMI_RETURN_NOT_OK(candidate.CheckColumns());
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

}  // namespace

Status JoinBelowMinimum(size_t join_size, size_t min_join_size) {
  return Status::OutOfRange("sketch join produced " +
                            std::to_string(join_size) +
                            " samples, fewer than the required " +
                            std::to_string(min_join_size));
}

SampleColumns ColumnSample::columns() const {
  SampleColumns columns;
  columns.size = size();
  columns.x_hashes = x_hashes.data();
  columns.x_numbers = x_numbers.data();
  columns.y_hashes = y_hashes.data();
  columns.y_numbers = y_numbers.data();
  columns.x_types = x_types;
  columns.y_types = y_types;
  return columns;
}

Result<SketchMIResult> ScoreSketchJoinSample(
    const ColumnSample& sample, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  // Guard before estimator dispatch: a too-small join is OutOfRange no
  // matter which estimator would have run, and skipping first keeps the
  // common below-cutoff case free of any scoring work.
  if (join_size < min_join_size) {
    return JoinBelowMinimum(join_size, min_join_size);
  }
  return ScoreColumns(sample.columns(), join_size, estimator, options);
}

Result<SketchJoinResult> JoinSketches(const Sketch& train,
                                      const Sketch& candidate) {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train, candidate));
  // Candidate keys are unique post-aggregation; build the probe map on them.
  std::unordered_map<uint64_t, size_t> aug;
  aug.reserve(candidate.size());
  for (size_t j = 0; j < candidate.size(); ++j) {
    if (!aug.emplace(candidate.key_hashes[j], j).second) {
      return Status::InvalidArgument(
          "candidate sketch has duplicate keys; was it built as a train "
          "sketch?");
    }
  }
  SketchJoinResult result;
  ColumnSample& sample = result.sample;
  // A set, not an adjacency counter: this reference stays correct for
  // hand-built or deserialized train sketches that violate the sortedness
  // invariant (TrainKeyRuns::Build rejects those for the scoring kernel).
  std::unordered_set<uint64_t> matched;
  matched.reserve(train.size());
  for (size_t e = 0; e < train.size(); ++e) {
    const auto it = aug.find(train.key_hashes[e]);
    if (it == aug.end()) continue;
    const size_t j = it->second;
    sample.x_hashes.push_back(candidate.ValueHash(j));
    sample.x_numbers.push_back(candidate.ValueNumber(j));
    sample.x_types.Add(candidate.ValueType(j));
    sample.y_hashes.push_back(train.ValueHash(e));
    sample.y_numbers.push_back(train.ValueNumber(e));
    sample.y_types.Add(train.ValueType(e));
    matched.insert(train.key_hashes[e]);
  }
  result.join_size = sample.size();
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

Result<TrainKeyRuns> TrainKeyRuns::Build(const Sketch& train) {
  JOINMI_RETURN_NOT_OK(train.CheckColumns());
  const size_t size = train.size();
  if (size > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("train sketch exceeds the run index limit");
  }
  TrainKeyRuns runs;
  const std::vector<uint64_t>& keys = train.key_hashes;
  runs.keys.reserve(size);
  runs.spans.reserve(size);
  for (uint32_t i = 0; i < size;) {
    const uint64_t key = keys[i];
    if (!runs.keys.empty() && key <= runs.keys.back()) {
      return Status::InvalidArgument(
          "train sketch entries are not sorted by key_hash");
    }
    uint32_t end = i + 1;
    while (end < size && keys[end] == key) ++end;
    runs.keys.push_back(key);
    runs.spans.emplace_back(i, end);
    i = end;
  }
  runs.bucket_shift =
      BuildBucketDirectory(runs.keys.data(), runs.keys.size(),
                           BucketBits(8 * runs.keys.size()),
                           &runs.bucket_begin);
  runs.hashes.reserve(size);
  for (size_t e = 0; e < size; ++e) runs.hashes.push_back(train.ValueHash(e));
  runs.types = train.value_types;
  return runs;
}

unsigned BucketBits(size_t min_buckets) {
  unsigned bits = 3;
  while (bits < 16 && (size_t{1} << bits) < min_buckets) ++bits;
  return bits;
}

unsigned BuildBucketDirectory(const uint64_t* keys, size_t count,
                              unsigned bits,
                              std::vector<uint32_t>* bucket_begin) {
  const unsigned shift = 64 - bits;
  // Keys ascend, so bucket indices do too: bucket b begins at the first
  // key whose bucket is >= b.
  const size_t num_buckets = size_t{1} << bits;
  bucket_begin->resize(num_buckets + 1);
  uint32_t i = 0;
  for (size_t b = 0; b <= num_buckets; ++b) {
    while (i < count && (keys[i] >> shift) < b) ++i;
    (*bucket_begin)[b] = i;
  }
  return shift;
}

Status CheckCandidateKeys(const Sketch& candidate) {
  if (candidate.side != SketchSide::kCandidate) {
    return Status::InvalidArgument(
        "expected a candidate-side sketch, got a train sketch");
  }
  JOINMI_RETURN_NOT_OK(candidate.CheckColumns());
  const std::vector<uint64_t>& keys = candidate.key_hashes;
  if (keys.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "candidate sketch exceeds the scoring kernel's entry limit");
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] <= keys[i - 1]) {
      if (keys[i] == keys[i - 1]) {
        return Status::InvalidArgument(
            "candidate sketch has duplicate keys; was it built as a train "
            "sketch?");
      }
      return Status::InvalidArgument(
          "candidate sketch entries are not sorted by key_hash");
    }
  }
  return Status::OK();
}

namespace {

struct MatchScratch {
  std::vector<RunMatch> matches;
};

struct GatherScratch {
  std::vector<uint64_t> x_hashes, y_hashes;
  std::vector<double> x_numbers, y_numbers;
};

// Grows `v` to at least `n` elements; a warm thread's scratch never
// shrinks or reinitializes.
template <typename T>
void EnsureSize(std::vector<T>& v, size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

Result<SketchMIResult> GatherAndScore(
    const Sketch& train, const TrainKeyRuns& runs, const Sketch& candidate,
    const RunMatch* matches, size_t num_matches, size_t n,
    const std::optional<MIEstimatorKind>& estimator,
    const MIOptions& options) {
  return internal::WithScratch<GatherScratch>(n, [&](GatherScratch& g) {
    EnsureSize(g.x_hashes, n);
    EnsureSize(g.y_hashes, n);
    EnsureSize(g.x_numbers, n);
    EnsureSize(g.y_numbers, n);
    SampleColumns sample;
    sample.size = n;
    sample.x_hashes = g.x_hashes.data();
    sample.x_numbers = g.x_numbers.data();
    sample.y_hashes = g.y_hashes.data();
    sample.y_numbers = g.y_numbers.data();
    // Each side's types come from its summary when that is homogeneous —
    // it then gives the types of any non-empty subset — and otherwise from
    // the matched entries, the subset the per-sample inference would see.
    const bool scan_y = !runs.types.homogeneous();
    if (!scan_y) sample.y_types = runs.types;
    // A train number is its value word; a non-numeric entry's word is a
    // hash, copied as a number no estimator reads, since its side is then
    // not all numeric.
    const uint64_t* y_words = train.value_words.data();
    size_t p = 0;
    auto emit = [&](const RunMatch& match, uint64_t x_hash, double x_number) {
      for (uint32_t e = match.begin; e < match.end; ++e, ++p) {
        g.x_hashes[p] = x_hash;
        g.x_numbers[p] = x_number;
        g.y_hashes[p] = runs.hashes[e];
        g.y_numbers[p] = WordNumber(y_words[e]);
        if (scan_y) sample.y_types.Add(train.mixed_types[e]);
      }
    };
    const uint64_t* words = candidate.value_words.data();
    const ValueTypes& types = candidate.value_types;
    if (types.all_numeric) {
      sample.x_types = types;
      for (size_t m = 0; m < num_matches; ++m) {
        const double x = WordNumber(words[matches[m].local]);
        emit(matches[m], NumericValueHash(x), x);
      }
    } else if (types.homogeneous()) {
      // No number is read on a side that is not all numeric.
      sample.x_types = types;
      for (size_t m = 0; m < num_matches; ++m) {
        emit(matches[m], words[matches[m].local], 0.0);
      }
    } else {
      for (size_t m = 0; m < num_matches; ++m) {
        const uint32_t local = matches[m].local;
        const DataType type = candidate.mixed_types[local];
        sample.x_types.Add(type);
        if (type == DataType::kDouble) {
          const double x = WordNumber(words[local]);
          emit(matches[m], NumericValueHash(x), x);
        } else {
          emit(matches[m], words[local], 0.0);
        }
      }
    }
    return ScoreColumns(sample, n, estimator, options);
  });
}

MergeJoinScore ScoreMergeJoin(const Sketch& train, const TrainKeyRuns& runs,
                              const Sketch& candidate,
                              const std::optional<MIEstimatorKind>& estimator,
                              const MIOptions& options, size_t min_join_size) {
  const size_t num_runs = runs.keys.size();
  // An empty train joins nothing; skipping its probe keeps `last` valid.
  const size_t probe_len = num_runs == 0 ? 0 : candidate.size();
  const size_t max_matches = std::min(num_runs, probe_len);
  return internal::WithScratch<MatchScratch>(
      max_matches, [&](MatchScratch& scratch) {
        MergeJoinScore score;
        // One slot past the last possible match: every key writes its
        // candidate match and only a hit advances the count.
        EnsureSize(scratch.matches, max_matches + 1);
        RunMatch* matches = scratch.matches.data();
        size_t num_matches = 0;
        size_t join_size = 0;
        // Each candidate key reads only its own bucket, so lookups carry
        // no dependency from key to key, and a bucket holds 0 or 1 runs
        // but for a rare collision, so the common lookup is branch-free:
        // one compare against the run at the bucket's start. An empty
        // bucket's start is the next bucket's first run (clamped to the
        // last run past the end), whose key lies in another bucket and so
        // cannot match: no bounds test is needed. Candidate keys ascend,
        // so matches come out in train-entry order, the order
        // JoinSketches emits.
        const uint64_t* train_keys = runs.keys.data();
        const uint64_t* candidate_keys = candidate.key_hashes.data();
        const uint32_t* bucket_begin = runs.bucket_begin.data();
        const unsigned shift = runs.bucket_shift;
        const uint32_t last = static_cast<uint32_t>(num_runs - 1);
        for (uint32_t j = 0; j < probe_len; ++j) {
          const uint64_t key = candidate_keys[j];
          const uint64_t b = key >> shift;
          uint32_t r = bucket_begin[b];
          const uint32_t end = bucket_begin[b + 1];
          if (end - r > 1) {
            while (r + 1 < end && train_keys[r] < key) ++r;
          }
          r = std::min(r, last);
          const bool hit = train_keys[r] == key;
          const std::pair<uint32_t, uint32_t> span = runs.spans[r];
          matches[num_matches] = RunMatch{span.first, span.second, j};
          num_matches += hit;
          join_size += hit ? span.second - span.first : 0;
        }
        score.join_size = join_size;
        if (join_size < min_join_size) return score;
        score.scored =
            GatherAndScore(train, runs, candidate, matches, num_matches,
                           join_size, estimator, options);
        return score;
      });
}

Result<MergeJoinScore> ScoreCandidateSketch(
    const Sketch& train, const TrainKeyRuns& runs, const Sketch& candidate,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train, candidate));
  JOINMI_RETURN_NOT_OK(CheckCandidateKeys(candidate));
  return ScoreMergeJoin(train, runs, candidate, estimator, options,
                        min_join_size);
}

}  // namespace joinmi
