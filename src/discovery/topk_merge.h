// The discovery ranking order, defined once: MI descending, then an
// ordering key ascending (candidate enumeration order for unsharded
// searches, the global insertion index for sharded ones). Every top-k
// selection — the unsharded merge, the per-shard selection, and the
// cross-shard merge — must sort by this same total order; if any of them
// diverges, the bit-identical guarantee between sharded and unsharded
// rankings breaks. The per-candidate outcome taxonomy the selections count
// and the strip fan-out that fills it live here too, shared by the
// in-memory and paged paths for the same reason. Internal to the discovery
// module.

#ifndef JOINMI_DISCOVERY_TOPK_MERGE_H_
#define JOINMI_DISCOVERY_TOPK_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/join_mi.h"

namespace joinmi {
namespace internal {

/// \brief One candidate's outcome in a whole-index or whole-shard
/// evaluation, written by exactly one worker: an estimate, a skip (join
/// below min_join_size), or neither — a hard error.
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

/// \brief Indices of the top-k present estimates plus how many were
/// present at all (the evaluated count, independent of k).
struct TopKSelection {
  std::vector<size_t> indices;
  size_t num_evaluated = 0;
};

/// \brief Selects the top-k present estimates ordered by
/// (MI desc, order_key_at(i) asc). `order_key_at` maps a local position to
/// its ordering key and must be injective over present estimates.
template <typename OrderKeyAt>
TopKSelection SelectTopKByMI(
    const std::vector<std::optional<JoinMIEstimate>>& estimates, size_t k,
    OrderKeyAt&& order_key_at) {
  TopKSelection selection;
  selection.indices.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (estimates[i].has_value()) selection.indices.push_back(i);
  }
  selection.num_evaluated = selection.indices.size();
  auto better = [&estimates, &order_key_at](size_t a, size_t b) {
    return BetterByMIThenKey(estimates[a]->mi, order_key_at(a),
                             estimates[b]->mi, order_key_at(b));
  };
  const size_t take = std::min(k, selection.indices.size());
  std::partial_sort(selection.indices.begin(),
                    selection.indices.begin() + take, selection.indices.end(),
                    better);
  selection.indices.resize(take);
  return selection;
}

}  // namespace internal
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_TOPK_MERGE_H_
