// Top-k discovery: sketch one query table and rank every candidate of an
// indexed target by the MI of its join with the query — the online half of
// the paper's discovery deployment (Section V-C). Candidates are sketched
// once, offline, by SketchIndex::IndexRepository (or loaded from index and
// shard files); a search only sketches the query. The result/spec types
// live in searchable.h.
//
//   SketchIndex index(config);
//   JOINMI_ASSIGN_OR_RETURN(size_t indexed, index.IndexRepository(repo));
//   auto top = TopKJoinMISearch(query_table, {"K", "Y"}, index, /*k=*/10);

#ifndef JOINMI_DISCOVERY_SEARCH_H_
#define JOINMI_DISCOVERY_SEARCH_H_

#include <cstddef>

#include "src/common/status.h"
#include "src/core/join_mi.h"
#include "src/discovery/searchable.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/table/table.h"

namespace joinmi {

/// \brief Index-backed search over any Searchable target: sketches the
/// base table once with the *target's* JoinMIConfig (so query and
/// candidate sketches are guaranteed to coordinate) and delegates ranking
/// to the target. For a SketchIndex this merges against the stored
/// candidate sketches in-process; for a ShardedSketchIndex it fans out
/// across shards and merges on (MI desc, global insertion index asc) —
/// bit-identical to the unsharded index for any shard count, partitioning
/// policy, thread count, and local-vs-remote deployment; for a Router it
/// additionally consults the result cache and admission gate. `mode`
/// governs shard-failure handling (see searchable.h) and is ignored by
/// unsharded targets.
Result<TopKSearchResult> TopKJoinMISearch(
    const Table& base_table, const SearchSpec& spec, const Searchable& target,
    size_t k, size_t num_threads = 0,
    ShardQueryMode mode = ShardQueryMode::kStrict);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SEARCH_H_
