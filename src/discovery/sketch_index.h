// Offline sketch index for MI-based data discovery: candidate column pairs
// are sketched once (offline), then a query table's sketch is joined against
// every indexed candidate to rank augmentations by estimated MI — the
// deployment shape motivating the paper (Sections I, III, V-C).
//
// The index is the persisted backbone of that deployment: each candidate is
// stored once, as its sketch, next to contiguous columns of every
// candidate's key hashes and value words that the scoring kernel probes
// and gathers from; queries fan out across a thread pool with a
// deterministic merge, and the whole index (config + provenance +
// sketches) serializes to a versioned binary format so it can be built
// offline and served after a restart.
//
// On-disk format (little-endian, version-tagged):
//   magic "JMIX" | u32 version
//   | config: u8 sketch_method, u64 sketch_capacity, u32 hash_seed,
//     u64 sampling_seed, u8 aggregation, u8 has_estimator, u8 estimator,
//     i32 mi_k, f64 laplace_alpha, f64 perturb_sigma, u64 perturb_seed,
//     u64 min_join_size
//   | u64 candidate_count
//   | per candidate: table_name, key_column, value_column (u32 length +
//     bytes each), then u32 length + serialized sketch (serialize.h format)

#ifndef JOINMI_DISCOVERY_SKETCH_INDEX_H_
#define JOINMI_DISCOVERY_SKETCH_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/searchable.h"

namespace joinmi {

/// \brief One indexed candidate: provenance plus its pre-built sketch.
struct IndexedCandidate {
  ColumnPairRef ref;
  Sketch candidate_sketch;

  const Sketch& sketch() const { return candidate_sketch; }
};

/// \brief Per-candidate outcomes of evaluating one query against the whole
/// index, in candidate enumeration order.
struct IndexEvaluation {
  /// estimates[i] belongs to candidates()[i]; nullopt if it was skipped or
  /// errored.
  std::vector<std::optional<JoinMIEstimate>> estimates;
  /// Candidates that produced an estimate.
  size_t num_evaluated = 0;
  /// Candidates whose sketch join fell below config.min_join_size (the
  /// paper's meaningless-estimate guard).
  size_t num_skipped = 0;
  /// Candidates that failed hard (estimator/type errors) — distinct from
  /// num_skipped so a broken index is not mistaken for small overlaps.
  size_t num_errors = 0;
};

/// \brief Sketch-per-candidate index over a repository.
class SketchIndex : public Searchable {
 public:
  explicit SketchIndex(JoinMIConfig config) : config_(std::move(config)) {}

  const JoinMIConfig& config() const { return config_; }
  size_t size() const { return candidates_.size(); }
  const std::vector<IndexedCandidate>& candidates() const {
    return candidates_;
  }

  /// \brief Sketches one candidate column pair and adds it.
  Status AddCandidate(const Table& table, const ColumnPairRef& ref);

  /// \brief Adds a pre-built candidate sketch (the deserialization path).
  /// Rejects sketches whose hash seed disagrees with the index config —
  /// they could never join a query sketched under this config — and
  /// train-side sketches or key hashes that do not strictly ascend (one
  /// linear pass catches duplicates and unsorted entries alike).
  Status AddSketch(const ColumnPairRef& ref, Sketch sketch);

  /// \brief Reserves room for `candidates` candidates in total, so adding
  /// that many grows no per-candidate array (the loader knows the count).
  void Reserve(size_t candidates);

  /// \brief Indexes every extractable column pair of the repository.
  /// Column pairs that cannot be sketched (e.g. all-null) are skipped;
  /// returns the number indexed.
  Result<size_t> IndexRepository(const TableRepository& repository);

  /// \brief Evaluates the query against every candidate, fanning out
  /// through ParallelFor (`num_threads` 0 = DefaultThreadCount(), 1 =
  /// inline).
  /// Outcomes land in enumeration order, so results never depend on the
  /// thread count. Fails fast on a query/index hash-seed mismatch.
  ///
  /// Hot path: candidates are scored in strips of 8 by ScoreMergeJoin,
  /// which looks each key of a candidate's slice of the key-hash column up
  /// in the query's train-key bucket directory (built once per query). It
  /// is the kernel `query.Estimate(sketch)` and paged shards call too, so
  /// every path produces bit-identical results.
  Result<IndexEvaluation> EvaluateAll(const JoinMIQuery& query,
                                      size_t num_threads = 0) const;

  // Searchable: the single-interface search path (search.h drives it).
  // `mode` is ignored — an unsharded index has no shard to lose.
  const JoinMIConfig& search_config() const override { return config_; }
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

 private:
  JoinMIConfig config_;
  std::vector<IndexedCandidate> candidates_;
  // Every candidate's key hashes back to back, so the probe reads a dense
  // u64 array; candidate c's slice is [key_offsets_[c],
  // key_offsets_[c + 1]), which gives the probe its length without
  // touching the sketch. The keys are thus held twice (8 bytes per entry)
  // on purpose: reading them at the 56-byte SketchEntry stride instead
  // made the bucket-directory probe 2-3x slower per candidate
  // (ScoreMergeJoin alone over 1536 no-join candidates of 256 keys, 8
  // alternating runs on a 4-vCPU Xeon: best 646 vs 1520 ns).
  std::vector<uint64_t> key_hashes_;
  std::vector<size_t> key_offsets_{0};
  // One value word per entry, at the same offsets, and one ValueTypes per
  // candidate (AppendValueWords): the word is the double's bits when all
  // of the candidate's values are numeric and Value::Hash() otherwise, so
  // the gather reads a matched value's number or hash from this column
  // and its types from the summary, never touching the 56-byte
  // SketchEntry the value sits in (that read was ~24% of single-thread
  // evaluate time on discovery_bench dense_join). Only a candidate whose
  // values mix types or hold a null still reads its entries.
  std::vector<uint64_t> value_words_;
  std::vector<ValueTypes> value_types_;
};

/// \brief Serializes the index (config, refs, sketches) to a binary string.
std::string SerializeIndex(const SketchIndex& index);

/// \brief Parses a serialized index; validates magic, version, enum tags,
/// and every embedded sketch, so corrupted inputs fail cleanly. The
/// candidate key-hash and value-word columns are rebuilt on load.
Result<SketchIndex> DeserializeIndex(const std::string& data);

/// \brief Writes the index to a file.
Status WriteIndexFile(const SketchIndex& index, const std::string& path);

/// \brief Reads an index from a file.
Result<SketchIndex> ReadIndexFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SKETCH_INDEX_H_
