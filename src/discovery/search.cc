#include "src/discovery/search.h"

namespace joinmi {

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
  // sketches coordinate.
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base_table, spec.base_key, spec.base_target,
                          target.search_config()));
  return target.SearchQuery(query, k, num_threads, mode);
}

}  // namespace joinmi
