// The discovery ranking order, defined once: MI descending, then an
// ordering key ascending (SearchHit::global_index: the candidate's position
// in the enumeration its search ranked — insertion order for an index, the
// global insertion index for a shard).
// Every ranked answer is a TopKSearchResult built by the three helpers
// here, in order: TallyOutcomes turns per-candidate outcomes into an
// IndexEvaluation, RankTopK selects one evaluation's top k, and MergeRanked
// merges ranked lists (shards, or a base shard and its delta). All three
// sort by the same total order; if any of them diverged, the bit-identical
// guarantee between sharded and unsharded rankings would break. The strip
// fan-out the in-memory and paged evaluations share lives here too.
// Internal to the discovery module.

#ifndef JOINMI_DISCOVERY_TOPK_MERGE_H_
#define JOINMI_DISCOVERY_TOPK_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/join_mi.h"
#include "src/discovery/searchable.h"
#include "src/discovery/sketch_index.h"

namespace joinmi {
namespace internal {

/// \brief One candidate's outcome in a whole-index or whole-shard
/// evaluation, written by exactly one worker: an estimate, a skip (an
/// OutOfRange score: a join below min_join_size, or one its estimator
/// cannot use), or neither — a hard error.
struct CandidateOutcome {
  std::optional<JoinMIEstimate> estimate;
  bool skipped = false;

  void Record(const MergeJoinScore& score) {
    if (!score.scored.has_value()) {
      skipped = true;
      return;
    }
    Record(*score.scored);
  }

  /// \brief Records a candidate that reached the scoring tail.
  void Record(const Result<SketchMIResult>& scored) {
    if (scored.ok()) {
      estimate = JoinMIEstimate{scored->mi, scored->estimator,
                                scored->join_size, /*sketched=*/true};
    } else if (scored.status().IsOutOfRange()) {
      skipped = true;
    }
  }
};

/// \brief The outcome tally: estimates in candidate order plus the
/// evaluated / skipped / error counts.
inline IndexEvaluation TallyOutcomes(std::vector<CandidateOutcome> outcomes) {
  IndexEvaluation evaluation;
  evaluation.estimates.reserve(outcomes.size());
  for (CandidateOutcome& outcome : outcomes) {
    if (outcome.estimate.has_value()) {
      ++evaluation.num_evaluated;
    } else if (outcome.skipped) {
      ++evaluation.num_skipped;
    } else {
      ++evaluation.num_errors;
    }
    evaluation.estimates.push_back(std::move(outcome.estimate));
  }
  return evaluation;
}

/// \brief Candidates scored per claimed ParallelFor index. Small enough
/// that a strip's working set (its candidates + the shared train runs)
/// stays cache-resident; large enough to amortize the claim.
constexpr size_t kCandidateStrip = 8;

/// \brief Calls `score_strip(begin, end)` over [0, count) in strips of
/// kCandidateStrip through ParallelFor: the caller plus up to
/// `num_threads - 1` shared-pool workers (0 = DefaultThreadCount()).
template <typename ScoreStrip>
void ForEachCandidateStrip(size_t count, size_t num_threads,
                           ScoreStrip&& score_strip) {
  const size_t strips = (count + kCandidateStrip - 1) / kCandidateStrip;
  ParallelFor(strips, num_threads, [count, &score_strip](size_t strip) {
    const size_t begin = strip * kCandidateStrip;
    score_strip(begin, std::min(begin + kCandidateStrip, count));
  });
}

/// \brief True iff (mi_a, key_a) ranks strictly before (mi_b, key_b).
inline bool BetterByMIThenKey(double mi_a, uint64_t key_a, double mi_b,
                              uint64_t key_b) {
  if (mi_a != mi_b) return mi_a > mi_b;
  return key_a < key_b;
}

/// \brief The ranking order on hits.
inline bool BetterHit(const SearchHit& a, const SearchHit& b) {
  return BetterByMIThenKey(a.estimate.mi, a.global_index, b.estimate.mi,
                           b.global_index);
}

/// \brief The per-index top-k: `evaluation`'s counters and its k best
/// estimates, ranked by (MI desc, order_key_at(i) asc). Candidate i's hit
/// carries ref_at(i) and global_index order_key_at(i), which must be
/// injective over present estimates.
template <typename OrderKeyAt, typename RefAt>
TopKSearchResult RankTopK(const IndexEvaluation& evaluation, size_t k,
                          OrderKeyAt&& order_key_at, RefAt&& ref_at) {
  const std::vector<std::optional<JoinMIEstimate>>& estimates =
      evaluation.estimates;
  std::vector<size_t> present;
  present.reserve(evaluation.num_evaluated);
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (estimates[i].has_value()) present.push_back(i);
  }
  const size_t take = std::min(k, present.size());
  std::partial_sort(present.begin(), present.begin() + take, present.end(),
                    [&](size_t a, size_t b) {
                      return BetterByMIThenKey(estimates[a]->mi,
                                               order_key_at(a),
                                               estimates[b]->mi,
                                               order_key_at(b));
                    });
  TopKSearchResult result;
  result.num_candidates = estimates.size();
  result.num_evaluated = evaluation.num_evaluated;
  result.num_skipped = evaluation.num_skipped;
  result.num_errors = evaluation.num_errors;
  result.hits.reserve(take);
  for (size_t r = 0; r < take; ++r) {
    const size_t i = present[r];
    result.hits.push_back(
        SearchHit{ref_at(i), *estimates[i], order_key_at(i)});
  }
  return result;
}

/// \brief The ranked-list merge: sums the parts' counters, concatenates
/// their hits, sorts them by BetterHit and keeps the first k. Each part's
/// top-k was selected under the same total order, so the merge loses
/// nothing the combined top-k could keep. Leaves shard_failures empty.
inline TopKSearchResult MergeRanked(std::vector<TopKSearchResult> parts,
                                    size_t k) {
  TopKSearchResult merged;
  size_t total_hits = 0;
  for (const TopKSearchResult& part : parts) {
    merged.num_candidates += part.num_candidates;
    merged.num_evaluated += part.num_evaluated;
    merged.num_skipped += part.num_skipped;
    merged.num_errors += part.num_errors;
    total_hits += part.hits.size();
  }
  merged.hits.reserve(total_hits);
  for (TopKSearchResult& part : parts) {
    for (SearchHit& hit : part.hits) merged.hits.push_back(std::move(hit));
  }
  std::sort(merged.hits.begin(), merged.hits.end(), BetterHit);
  if (merged.hits.size() > k) merged.hits.resize(k);
  return merged;
}

}  // namespace internal
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_TOPK_MERGE_H_
