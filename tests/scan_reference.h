// A serial, index-free reference for the discovery search, shared by the
// tests that check an indexed ranking against it. It scores every column
// pair of a repository with JoinMIQuery::EstimateTable, which sketches the
// candidate on the spot, and ranks by (MI desc, pair order). The engine
// sketches candidates once, into a SketchIndex; this reference shares
// only the estimate path with it, so an index that loses, reorders or
// mis-scores a candidate disagrees with it.

#ifndef JOINMI_TESTS_SCAN_REFERENCE_H_
#define JOINMI_TESTS_SCAN_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/searchable.h"
#include "src/table/table.h"

namespace joinmi {

/// \brief The top k of every pair of `repository.ExtractColumnPairs()`
/// against `base`, sketched under `config`. A pair counts as skipped when
/// its estimate is OutOfRange and as an error on any other failure
/// (including a pair that cannot be sketched, which an index leaves out);
/// a hit's global_index is its pair's position in the enumeration.
inline Result<TopKSearchResult> ScanReference(
    const Table& base, const SearchSpec& spec,
    const TableRepository& repository, size_t k, const JoinMIConfig& config) {
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base, spec.base_key, spec.base_target, config));
  const std::vector<ColumnPairRef> pairs = repository.ExtractColumnPairs();
  TopKSearchResult result;
  result.num_candidates = pairs.size();
  for (size_t i = 0; i < pairs.size(); ++i) {
    JOINMI_ASSIGN_OR_RETURN(auto table,
                            repository.GetTable(pairs[i].table_name));
    Result<JoinMIEstimate> estimate = query.EstimateTable(
        *table, pairs[i].key_column, pairs[i].value_column);
    if (estimate.ok()) {
      ++result.num_evaluated;
      result.hits.push_back(SearchHit{pairs[i], *estimate, i});
    } else if (estimate.status().IsOutOfRange()) {
      ++result.num_skipped;
    } else {
      ++result.num_errors;
    }
  }
  // Stable: equal MI keeps pair order.
  std::stable_sort(result.hits.begin(), result.hits.end(),
                   [](const SearchHit& a, const SearchHit& b) {
                     return a.estimate.mi > b.estimate.mi;
                   });
  if (result.hits.size() > k) result.hits.resize(k);
  return result;
}

}  // namespace joinmi

#endif  // JOINMI_TESTS_SCAN_REFERENCE_H_
