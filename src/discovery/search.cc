#include "src/discovery/search.h"

#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/discovery/topk_merge.h"

namespace joinmi {

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
  std::vector<internal::CandidateOutcome> outcomes(pairs.size());
  // Each worker touches only const shared state plus its own outcome slot.
  // A missing table leaves the slot empty, which the tally counts as a
  // hard error, as it does an unsketchable column or an estimator error.
  ParallelFor(pairs.size(), config.num_threads, [&](size_t i) {
    auto table = repository.GetTable(pairs[i].table_name);
    if (!table.ok()) return;
    outcomes[i].Record(query.EstimateTable(**table, pairs[i].key_column,
                                           pairs[i].value_column));
  });
  // The order key is the pair's enumeration index, unsketchable pairs
  // included.
  return internal::RankTopK(
      internal::TallyOutcomes(std::move(outcomes)), k,
      [](size_t i) { return static_cast<uint64_t>(i); },
      [&pairs](size_t i) { return pairs[i]; });
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

}  // namespace joinmi
