// The one discovery-search surface every query target implements, and the
// one ranked answer every search path returns.
//
// A target exposes the JoinMIConfig its candidates were sketched under
// plus one SearchQuery method over an already-sketched query, and the
// single Searchable-based TopKJoinMISearch in search.h drives any of
// them. SketchIndex, ShardedSketchIndex, and Router all implement it.
//
// This header also owns the result/spec types. TopKSearchResult is the
// answer of every search, from one index through one shard (ShardClient,
// local or remote) to the cross-shard merge; topk_merge.h builds and
// merges it.

#ifndef JOINMI_DISCOVERY_SEARCHABLE_H_
#define JOINMI_DISCOVERY_SEARCHABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/join_mi.h"
#include "src/discovery/repository.h"

namespace joinmi {

/// \brief Base-table column bindings for one discovery search.
struct SearchSpec {
  std::string base_key;     ///< K_Y: join key in the base table
  std::string base_target;  ///< Y: target attribute in the base table
};

/// \brief One ranked search answer.
struct SearchHit {
  ColumnPairRef candidate;
  JoinMIEstimate estimate;
  /// The candidate's position in the enumeration its search ranked:
  /// insertion order for an index, the global insertion index for a shard.
  /// Ties on MI break on it.
  uint64_t global_index = 0;
};

/// \brief One shard that failed to answer a degraded-mode query.
struct ShardFailure {
  /// Index of the shard in the manifest.
  size_t shard = 0;
  /// Why it failed (connection refused, timeout, shard-side error, ...).
  Status status;
};

/// \brief How a fan-out search treats shard failures.
enum class ShardQueryMode : uint8_t {
  /// Any shard failure fails the whole query (first failure in shard
  /// order, so errors are deterministic). The historical behavior and the
  /// default — bit-identical guarantees hold only over complete answers.
  kStrict = 0,
  /// Failed shards are recorded in shard_failures and the merged top-k
  /// covers the healthy shards only. Fails only when no shard answered.
  kDegraded = 1,
};

/// \brief Outcome of one top-k discovery search.
struct TopKSearchResult {
  /// Hits sorted by MI descending; ties break on SearchHit::global_index
  /// (global insertion order, sharded or not; IndexRepository inserts in
  /// ExtractColumnPairs order: table name, then schema column order), so
  /// the ranking is stable and reproducible.
  std::vector<SearchHit> hits;
  /// Indexed candidates searched.
  size_t num_candidates = 0;
  /// Candidates that produced an estimate.
  size_t num_evaluated = 0;
  /// Candidates skipped because the sketch-join overlap fell below
  /// config.min_join_size, or gave a sample its estimator cannot use —
  /// expected in healthy repositories.
  size_t num_skipped = 0;
  /// Candidates that failed hard (estimator or type errors). Kept separate
  /// from num_skipped so "overlap too small" is distinguishable from
  /// "index is broken". A column pair that cannot be sketched never becomes
  /// a candidate: IndexRepository leaves it out of the index.
  size_t num_errors = 0;
  /// Shards that did not answer, in shard order (sharded outage in
  /// degraded mode only; always empty otherwise, and never set by a single
  /// shard). When non-empty, hits and counters cover the answering shards
  /// only.
  std::vector<ShardFailure> shard_failures;
};

/// \brief A queryable discovery target: anything that can rank its
/// candidates against a sketched query. The free TopKJoinMISearch in
/// search.h sketches the base table under search_config() and delegates
/// here, so every implementation inherits the same entry point.
class Searchable {
 public:
  virtual ~Searchable() = default;

  /// \brief The JoinMIConfig the target's candidates were sketched under —
  /// the config the query MUST be sketched with to coordinate.
  virtual const JoinMIConfig& search_config() const = 0;

  /// \brief Ranks the target's candidates against `query` and returns the
  /// top k by (MI desc, enumeration order asc). `num_threads` 0 means
  /// DefaultThreadCount(); rankings never depend on it. `mode` matters
  /// only for sharded targets (unsharded ones have no shard to lose).
  virtual Result<TopKSearchResult> SearchQuery(
      const JoinMIQuery& query, size_t k, size_t num_threads,
      ShardQueryMode mode) const = 0;
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SEARCHABLE_H_
