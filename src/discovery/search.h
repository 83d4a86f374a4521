// Parallel batch discovery: fan one MI-over-join query out across every
// candidate column pair in a repository and return a deterministic top-k —
// the online half of the paper's discovery deployment (Section V-C), built
// for scale: the base sketch is built once and shared (read-only) by all
// worker threads, and results are merged in candidate-enumeration order so
// rankings are identical for any thread count.
//
// Entry points (the result/spec types live in searchable.h):
//   - the repository-scan overload, which sketches every candidate per
//     query (no index needed);
//   - the Searchable overload, which drives ANY indexed target —
//     SketchIndex, ShardedSketchIndex, or discovery::Router — through one
//     interface. The historical per-type overloads forward here inline and
//     are deprecated.

#ifndef JOINMI_DISCOVERY_SEARCH_H_
#define JOINMI_DISCOVERY_SEARCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/searchable.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/table/table.h"

namespace joinmi {

/// \brief Execution knobs for the repository-scan TopKJoinMISearch.
struct SearchConfig {
  /// Worker threads; 0 means hardware concurrency, 1 runs inline without a
  /// pool. Rankings do not depend on this value.
  size_t num_threads = 0;
  /// Per-query sketching/estimation configuration.
  JoinMIConfig join_config;
};

/// \brief Searches the repository for the k candidate column pairs whose
/// join-aggregation with `base_table` has the highest estimated MI with
/// `spec.base_target`.
///
/// The base table's sketch is built exactly once and probed concurrently;
/// every candidate pair from `repository.ExtractColumnPairs()` is sketched
/// and estimated independently, so the search parallelizes embarrassingly.
/// Candidates whose estimate fails (e.g. overlap below
/// `config.join_config.min_join_size`) are counted in `num_skipped` rather
/// than failing the search.
Result<TopKSearchResult> TopKJoinMISearch(const Table& base_table,
                                          const SearchSpec& spec,
                                          const TableRepository& repository,
                                          size_t k,
                                          const SearchConfig& config = {});

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
