#include "src/discovery/search.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/discovery/topk_merge.h"

namespace joinmi {

namespace {

struct CandidateOutcome {
  std::optional<JoinMIEstimate> estimate;
  bool skipped = false;  // overlap below min_join_size (OutOfRange)
};

// Evaluates candidate pair `i` into `outcomes[i]`. Runs on worker threads:
// touches only const shared state plus its own outcome slot. An OutOfRange
// estimate marks the slot skipped; every other failure (missing table,
// unsketchable column, estimator error) leaves {nullopt, skipped=false},
// which the merge counts as a hard error.
void EvaluateCandidate(const JoinMIQuery& query,
                       const TableRepository& repository,
                       const ColumnPairRef& ref, CandidateOutcome* outcome) {
  auto table = repository.GetTable(ref.table_name);
  if (!table.ok()) return;
  auto estimate = query.EstimateTable(**table, ref.key_column,
                                      ref.value_column);
  if (estimate.ok()) {
    outcome->estimate = *estimate;
  } else if (estimate.status().IsOutOfRange()) {
    outcome->skipped = true;
  }
}

// Deterministic top-k merge shared by both unsharded search overloads:
// ranks the present estimates by the canonical discovery order
// (topk_merge.h) with the enumeration index (== candidate order, sorted
// for repositories, insertion order for indexes) as the ordering key, then
// fills result->hits using ref_at(i) for provenance. Also sets
// num_evaluated.
template <typename RefAt>
void MergeTopKByEnumeration(
    const std::vector<std::optional<JoinMIEstimate>>& estimates, size_t k,
    RefAt&& ref_at, TopKSearchResult* result) {
  internal::TopKSelection selection = internal::SelectTopKByMI(
      estimates, k, [](size_t i) { return static_cast<uint64_t>(i); });
  result->num_evaluated = selection.num_evaluated;
  result->hits.reserve(selection.indices.size());
  for (size_t i : selection.indices) {
    result->hits.push_back(SearchHit{ref_at(i), *estimates[i]});
  }
}

}  // namespace

Result<TopKSearchResult> TopKJoinMISearch(const Table& base_table,
                                          const SearchSpec& spec,
                                          const TableRepository& repository,
                                          size_t k,
                                          const SearchConfig& config) {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base_table, spec.base_key, spec.base_target,
                          config.join_config));

  const std::vector<ColumnPairRef> pairs = repository.ExtractColumnPairs();
  std::vector<CandidateOutcome> outcomes(pairs.size());

  ParallelFor(pairs.size(), config.num_threads, [&](size_t i) {
    EvaluateCandidate(query, repository, pairs[i], &outcomes[i]);
  });

  TopKSearchResult result;
  result.num_candidates = pairs.size();
  std::vector<std::optional<JoinMIEstimate>> estimates;
  estimates.reserve(outcomes.size());
  for (CandidateOutcome& outcome : outcomes) {
    if (!outcome.estimate.has_value()) {
      if (outcome.skipped) {
        ++result.num_skipped;
      } else {
        ++result.num_errors;
      }
    }
    estimates.push_back(std::move(outcome.estimate));
  }
  MergeTopKByEnumeration(estimates, k,
                         [&pairs](size_t i) { return pairs[i]; }, &result);
  return result;
}

Result<TopKSearchResult> TopKJoinMISearch(const Table& base_table,
                                          const SearchSpec& spec,
                                          const Searchable& target, size_t k,
                                          size_t num_threads,
                                          ShardQueryMode mode) {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  // The target's config (not a caller-supplied one) drives the query
  // sketch: candidate sketches were built under it, and only same-config
  // sketches coordinate. This is what makes every indexed ranking match
  // the repository path.
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base_table, spec.base_key, spec.base_target,
                          target.search_config()));
  return target.SearchQuery(query, k, num_threads, mode);
}

// SketchIndex's Searchable implementation lives here (not in
// sketch_index.cc) so it shares MergeTopKByEnumeration with the
// repository-scan path — the shared merge is what keeps the two rankings
// provably identical.
Result<TopKSearchResult> SketchIndex::SearchQuery(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads,
                                                  ShardQueryMode mode) const {
  (void)mode;  // no shard to lose
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(IndexEvaluation evaluation,
                          EvaluateAll(query, num_threads));
  TopKSearchResult result;
  result.num_candidates = size();
  result.num_skipped = evaluation.num_skipped;
  result.num_errors = evaluation.num_errors;
  MergeTopKByEnumeration(
      evaluation.estimates, k,
      [this](size_t i) { return candidates()[i].ref; }, &result);
  return result;
}

Result<TopKSearchResult> ShardedSketchIndex::SearchQuery(
    const JoinMIQuery& query, size_t k, size_t num_threads,
    ShardQueryMode mode) const {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(ShardSearchResult merged,
                          Search(query, k, num_threads, mode));
  TopKSearchResult result;
  result.num_candidates = merged.num_candidates;
  result.num_evaluated = merged.num_evaluated;
  result.num_skipped = merged.num_skipped;
  result.num_errors = merged.num_errors;
  result.shard_failures = std::move(merged.shard_failures);
  result.hits.reserve(merged.hits.size());
  for (ShardSearchHit& hit : merged.hits) {
    result.hits.push_back(SearchHit{std::move(hit.ref), hit.estimate});
  }
  return result;
}

}  // namespace joinmi
