// Sketch join: merging two independently built sketches on their hashed
// keys to recover a sample of the full (left-outer, many-to-one) join, and
// estimating MI on that sample (Section IV "Approach Overview").

#ifndef JOINMI_SKETCH_SKETCH_JOIN_H_
#define JOINMI_SKETCH_SKETCH_JOIN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/mi/estimator.h"
#include "src/sketch/sketch.h"

namespace joinmi {

/// \brief A paired sample in owned typed columns: what a sketch join
/// recovers. Entry i pairs feature x (the candidate's value) with target y
/// (the train's): `x_hashes[i]` is x's Value::Hash() and `x_numbers[i]`
/// its number (0 unless numeric), likewise for y, and `x_types` /
/// `y_types` summarize each side.
struct ColumnSample {
  std::vector<uint64_t> x_hashes, y_hashes;
  std::vector<double> x_numbers, y_numbers;
  ValueTypes x_types, y_types;

  size_t size() const { return x_hashes.size(); }
  /// \brief The columns as every estimator reads them, valid while this
  /// sample lives unchanged.
  SampleColumns columns() const;
};

/// \brief Result of joining a train sketch with a candidate sketch.
struct SketchJoinResult {
  /// Paired (feature X from candidate, target Y from train) samples, one
  /// per matching train entry — train-side multiplicity is preserved, so
  /// repeated keys reproduce repeated feature values as in the real join.
  ColumnSample sample;
  /// Number of joined pairs (== sample.size()).
  size_t join_size = 0;
  /// Distinct keys contributing at least one pair.
  size_t matched_keys = 0;
};

/// \brief Joins the sketches on h(k) through a hash map over the
/// candidate's keys — the reference the scoring kernel is checked
/// against. The candidate sketch must be aggregated (unique keys); each
/// train entry matches at most one candidate entry. Sketches must be built
/// with the same hash seed: key hashes from different seeds are
/// incomparable, so a mismatch returns InvalidArgument instead of a
/// silently meaningless (empty or garbage) join.
Result<SketchJoinResult> JoinSketches(const Sketch& train,
                                      const Sketch& candidate);

/// \brief End-to-end sketch-based MI estimate.
struct SketchMIResult {
  double mi = 0.0;
  MIEstimatorKind estimator = MIEstimatorKind::kMLE;
  size_t join_size = 0;
};

/// \brief Scores an already-recovered join sample exactly as the
/// EstimateSketchMI* entry points do: the min_join_size guard first
/// (OutOfRange — the paper's meaningless-estimate cutoff), then estimator
/// dispatch (`estimator` if set, otherwise ChooseEstimatorForSample), then
/// OutOfRange again for a sample smaller than that estimator's
/// MinimumSamples, then EstimateMI on the sample's columns — the same tail
/// the scoring kernel runs on its gathered columns, which is what keeps
/// their results bit-identical.
Result<SketchMIResult> ScoreSketchJoinSample(
    const ColumnSample& sample, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size);

/// \brief Joins sketches and runs the given estimator on the recovered
/// sample. `min_join_size` guards against meaningless estimates from tiny
/// overlaps (the paper discards joins below 100 samples in Section V-C).
Result<SketchMIResult> EstimateSketchMI(const Sketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options = {},
                                        size_t min_join_size = 1);

/// \brief A train sketch's runs of equal key_hash in structure-of-arrays
/// form, a bucket directory over their keys, and the value hashes the
/// scoring kernel gathers samples from beside the train's value words.
/// keys[r] is the r-th distinct key and spans[r] its [begin, end) slice of
/// the train entries; hashes[e] is entry e's Value::Hash()
/// (Sketch::ValueHash), and `types` summarizes every entry's value. Built
/// once per query and shared by every candidate it is scored against.
///
/// The directory is CSR over the ascending run keys: run r lives in bucket
/// keys[r] >> bucket_shift, and bucket b holds runs
/// [bucket_begin[b], bucket_begin[b + 1]). Its 2^B buckets take the
/// smallest B >= 3 with 2^B >= 8 x runs, capped at 2^16. Key hashes are
/// Mix64 outputs, so their top bits are uniform: at sketch capacity 256 the
/// directory is at most 2048 buckets (8 KB, L1-resident), and all but a
/// few hold 0 or 1 run.
struct TrainKeyRuns {
  std::vector<uint64_t> keys;
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  std::vector<uint32_t> bucket_begin;
  unsigned bucket_shift = 0;
  std::vector<uint64_t> hashes;
  ValueTypes types;

  /// \brief Collects the runs, directory and columns of `train`. Fails
  /// with InvalidArgument unless its columns agree and the run keys
  /// strictly ascend — entries sorted by key_hash, the builder invariant
  /// the kernel depends on.
  static Result<TrainKeyRuns> Build(const Sketch& train);
};

/// \brief The smallest B >= 3 with 2^B >= `min_buckets`, capped at 16: the
/// size of a bucket directory over Mix64 key hashes, whose top bits are
/// uniform.
unsigned BucketBits(size_t min_buckets);

/// \brief Fills `*bucket_begin` with a CSR directory of 2^`bits` buckets
/// over `count` strictly ascending `keys`: key i lives in bucket
/// keys[i] >> (64 - bits), and bucket b holds keys [bucket_begin[b],
/// bucket_begin[b + 1]). Returns that shift, 64 - bits. Grows the vector
/// only past its capacity.
unsigned BuildBucketDirectory(const uint64_t* keys, size_t count,
                              unsigned bits,
                              std::vector<uint32_t>* bucket_begin);

/// \brief Checks the candidate side of the kernel's contract: a
/// candidate-side sketch whose columns agree (Sketch::CheckColumns) and
/// whose key hashes strictly ascend, which rejects both duplicate keys and
/// unsorted entries in one linear pass.
Status CheckCandidateKeys(const Sketch& candidate);

/// \brief One match of the probe: candidate entry `local` joins the train
/// entries [begin, end), the run of its key.
struct RunMatch {
  uint32_t begin;
  uint32_t end;
  uint32_t local;
};

/// \brief The scoring tail of every kernel path: gathers the join sample
/// of `num_matches` matches, in ascending key order and totalling
/// `join_size` pairs, as SampleColumns — hashes and doubles copied from
/// `runs` and the candidate's value words — and scores it as
/// ScoreSketchJoinSample would, without the min_join_size guard, which is
/// the caller's. ScoreMergeJoin feeds it its probe's matches and
/// SketchIndex its postings'. A candidate's number and hash come from its
/// value word: a number's word is the double, hashed by NumericValueHash;
/// any other's is the hash. The estimator is `estimator` if set, else the
/// auto policy on the sample's types: each side's from its summary
/// (`candidate.value_types`, `runs.types`) when that is homogeneous and
/// from the matched entries' types otherwise — the same answer
/// ChooseEstimatorForSample gives on the joined sample.
/// Scratch follows internal::WithScratch on `join_size`.
Result<SketchMIResult> GatherAndScore(
    const Sketch& train, const TrainKeyRuns& runs, const Sketch& candidate,
    const RunMatch* matches, size_t num_matches, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator,
    const MIOptions& options);

/// \brief One candidate's outcome from ScoreMergeJoin.
struct MergeJoinScore {
  /// Joined pairs, train-side multiplicity included.
  size_t join_size = 0;
  /// Empty when join_size < min_join_size: the common skip costs the probe
  /// alone, with no value gathered and no Status built. Otherwise the
  /// estimate, or the estimator's error.
  std::optional<Result<SketchMIResult>> scored;
};

/// \brief The scoring kernel's probe for one candidate, then
/// GatherAndScore: JoinMIQuery::Estimate and paged shards score a
/// candidate through here (SketchIndex reaches the same tail through its
/// key postings). Walks the candidate's ascending keys and looks each up in
/// its bucket of the train directory — no loop-carried dependency between
/// keys, and a candidate that joins nothing never reads its Sketch.
/// Matches come out in ascending key order, which is train-entry order, so
/// the join sample is gathered exactly as JoinSketches emits it, with train
/// multiplicity, and the result — estimate or error status — is
/// bit-identical to JoinSketches + ScoreSketchJoinSample on the same
/// sketches.
///
/// `runs` must come from TrainKeyRuns::Build(train), and `candidate`'s
/// keys strictly ascend (CheckCandidateKeys). Sides and seeds are the
/// caller's to check.
/// Scratch follows the estimators' rule (internal::WithScratch): a thread
/// reuses its own for joins of up to kMaxRetainedScratchPoints, so a warmed
/// thread scores sketch joins without heap allocation, and a larger join
/// gets call-local scratch that is freed on return.
MergeJoinScore ScoreMergeJoin(const Sketch& train, const TrainKeyRuns& runs,
                              const Sketch& candidate,
                              const std::optional<MIEstimatorKind>& estimator,
                              const MIOptions& options, size_t min_join_size);

/// \brief ScoreMergeJoin for a candidate not checked yet — one decoded or
/// received per probe: checks sides and seeds and the candidate's key
/// order (CheckCandidateKeys) first.
Result<MergeJoinScore> ScoreCandidateSketch(
    const Sketch& train, const TrainKeyRuns& runs, const Sketch& candidate,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size);

/// \brief The OutOfRange status ScoreSketchJoinSample returns for a join
/// below min_join_size.
Status JoinBelowMinimum(size_t join_size, size_t min_join_size);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_SKETCH_JOIN_H_
