#include "src/sketch/sketch_join.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mi/estimator_internal.h"

namespace joinmi {

namespace {

// A numeric value word and its double.
uint64_t NumberBits(double number) {
  uint64_t bits;
  std::memcpy(&bits, &number, sizeof(bits));
  return bits;
}

double WordNumber(uint64_t word) {
  double number;
  std::memcpy(&number, &word, sizeof(number));
  return number;
}

// The scoring tail after the min_join_size guard, shared by the Value
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
  // invariant (TrainKeyRuns::Build rejects those for the scoring kernel).
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

Result<TrainKeyRuns> TrainKeyRuns::Build(const Sketch& train) {
  if (train.entries.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("train sketch exceeds the run index limit");
  }
  TrainKeyRuns runs;
  const std::vector<SketchEntry>& entries = train.entries;
  runs.keys.reserve(entries.size());
  runs.spans.reserve(entries.size());
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
  runs.bucket_shift =
      BuildBucketDirectory(runs.keys.data(), runs.keys.size(),
                           BucketBits(8 * runs.keys.size()),
                           &runs.bucket_begin);
  runs.hashes.reserve(entries.size());
  runs.numbers.reserve(entries.size());
  for (const SketchEntry& entry : entries) {
    runs.hashes.push_back(entry.value.Hash());
    runs.numbers.push_back(entry.value.NumericOr(0.0));
    runs.types.Add(entry.value);
  }
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
  const std::vector<SketchEntry>& entries = candidate.entries;
  if (entries.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "candidate sketch exceeds the scoring kernel's entry limit");
  }
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].key_hash <= entries[i - 1].key_hash) {
      if (entries[i].key_hash == entries[i - 1].key_hash) {
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

Status AppendCandidateKeys(const Sketch& candidate,
                           std::vector<uint64_t>* keys) {
  JOINMI_RETURN_NOT_OK(CheckCandidateKeys(candidate));
  for (const SketchEntry& entry : candidate.entries) {
    keys->push_back(entry.key_hash);
  }
  return Status::OK();
}

ValueTypes AppendValueWords(const Sketch& candidate,
                            std::vector<uint64_t>* words) {
  ValueTypes types;
  for (const SketchEntry& entry : candidate.entries) types.Add(entry.value);
  if (types.all_numeric) {
    for (const SketchEntry& entry : candidate.entries) {
      words->push_back(NumberBits(entry.value.NumericOr(0.0)));
    }
  } else {
    for (const SketchEntry& entry : candidate.entries) {
      words->push_back(entry.value.Hash());
    }
  }
  return types;
}

namespace {

struct MatchScratch {
  std::vector<RunMatch> matches;
};

struct GatherScratch {
  std::vector<uint64_t> x_hashes, y_hashes;
  std::vector<double> x_numbers, y_numbers;
};

struct CandidateScratch {
  std::vector<uint64_t> keys, value_words;
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
    const CandidateColumns& columns, const RunMatch* matches,
    size_t num_matches, size_t n,
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
    // the matched values, the subset the per-sample inference would see.
    const bool scan_y = !runs.types.homogeneous();
    if (!scan_y) sample.y_types = runs.types;
    size_t p = 0;
    auto emit = [&](const RunMatch& match, uint64_t x_hash, double x_number) {
      for (uint32_t e = match.begin; e < match.end; ++e, ++p) {
        g.x_hashes[p] = x_hash;
        g.x_numbers[p] = x_number;
        g.y_hashes[p] = runs.hashes[e];
        g.y_numbers[p] = runs.numbers[e];
        if (scan_y) sample.y_types.Add(train.entries[e].value);
      }
    };
    const uint64_t* words = columns.value_words;
    if (columns.types.all_numeric) {
      sample.x_types = columns.types;
      for (size_t m = 0; m < num_matches; ++m) {
        const double x = WordNumber(words[matches[m].local]);
        emit(matches[m], NumericValueHash(x), x);
      }
    } else if (columns.types.homogeneous()) {
      // No number is read on a side that is not all numeric.
      sample.x_types = columns.types;
      for (size_t m = 0; m < num_matches; ++m) {
        emit(matches[m], words[matches[m].local], 0.0);
      }
    } else {
      for (size_t m = 0; m < num_matches; ++m) {
        const Value& x = candidate.entries[matches[m].local].value;
        sample.x_types.Add(x);
        emit(matches[m], words[matches[m].local], x.NumericOr(0.0));
      }
    }
    return ScoreColumns(sample, n, estimator, options);
  });
}

MergeJoinScore ScoreMergeJoin(const Sketch& train, const TrainKeyRuns& runs,
                              const Sketch& candidate,
                              const CandidateColumns& columns,
                              const std::optional<MIEstimatorKind>& estimator,
                              const MIOptions& options, size_t min_join_size) {
  const size_t num_runs = runs.keys.size();
  // An empty train joins nothing; skipping its probe keeps `last` valid.
  const size_t probe_len = num_runs == 0 ? 0 : columns.size;
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
        const uint32_t* bucket_begin = runs.bucket_begin.data();
        const unsigned shift = runs.bucket_shift;
        const uint32_t last = static_cast<uint32_t>(num_runs - 1);
        for (uint32_t j = 0; j < probe_len; ++j) {
          const uint64_t key = columns.keys[j];
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
            GatherAndScore(train, runs, candidate, columns, matches,
                           num_matches, join_size, estimator, options);
        return score;
      });
}

Result<MergeJoinScore> ScoreCandidateSketch(
    const Sketch& train, const TrainKeyRuns& runs, const Sketch& candidate,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train, candidate));
  return internal::WithScratch<CandidateScratch>(
      candidate.entries.size(),
      [&](CandidateScratch& scratch) -> Result<MergeJoinScore> {
        scratch.keys.clear();
        scratch.value_words.clear();
        JOINMI_RETURN_NOT_OK(AppendCandidateKeys(candidate, &scratch.keys));
        CandidateColumns columns;
        columns.types = AppendValueWords(candidate, &scratch.value_words);
        columns.keys = scratch.keys.data();
        columns.value_words = scratch.value_words.data();
        columns.size = scratch.keys.size();
        return ScoreMergeJoin(train, runs, candidate, columns, estimator,
                              options, min_join_size);
      });
}

}  // namespace joinmi
