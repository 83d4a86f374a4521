// Offline sketch index for MI-based data discovery: candidate column pairs
// are sketched once (offline), then a query table's sketch is joined against
// every indexed candidate to rank augmentations by estimated MI — the
// deployment shape motivating the paper (Sections I, III, V-C).
//
// The index is the persisted backbone of that deployment: each candidate is
// stored once, as its columnar sketch, whose value words the scoring
// kernel gathers from, next to an inverted directory from each key hash to
// the candidates holding it, so a query touches only the candidates its
// keys reach; queries fan out across
// a thread pool with a deterministic merge, and the whole index (config +
// provenance + sketches) serializes to a versioned binary format so it can
// be built offline and served after a restart.
//
// On-disk format (little-endian, version-tagged):
//   magic "JMIX" | u32 version
//   | config: u8 sketch_method, u64 sketch_capacity, u32 hash_seed,
//     u64 sampling_seed, u8 aggregation, u8 has_estimator, u8 estimator,
//     i32 mi_k, f64 laplace_alpha, f64 perturb_sigma, u64 perturb_seed,
//     u64 min_join_size
//   | u64 candidate_count
//   | per candidate: one candidate record
//
// A candidate record is table_name, key_column, value_column (u32 length
// + bytes each), then u32 length + serialized sketch (serialize.h v3: the
// sketch's key-hash, rank and value-word columns copied whole; an older
// sketch fails the load with its version and the rebuild to run).
// Its codec (EncodeCandidateRecord / DecodeCandidateRecord) lives here and
// is the one every shard file stores: paged "JMPS" files and delta
// segments hold the same records (sharded_index.h EncodeShardFile).

#ifndef JOINMI_DISCOVERY_SKETCH_INDEX_H_
#define JOINMI_DISCOVERY_SKETCH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/searchable.h"

namespace joinmi {

/// \brief One candidate as a shard file stores it: provenance plus its
/// sketch.
struct CandidateRecord {
  ColumnPairRef ref;
  Sketch sketch;
};

/// \brief Encodes a candidate as one record: three length-prefixed ref
/// strings, then the length-prefixed serialized sketch.
std::string EncodeCandidateRecord(const ColumnPairRef& ref,
                                  const Sketch& sketch);

/// \brief Parses one encoded record; validates the embedded sketch and
/// rejects trailing bytes.
Result<CandidateRecord> DecodeCandidateRecord(const std::string& record);

/// \brief The checks every candidate passes before an index or a shard
/// file holds it: its hash seed must be the config's — a sketch under
/// another seed could never join a query sketched under this config — and
/// its keys must satisfy CheckCandidateKeys.
Status CheckIndexedSketch(const JoinMIConfig& config,
                          const ColumnPairRef& ref, const Sketch& sketch);

/// \brief One indexed candidate: provenance plus its pre-built sketch, whose
/// columns the index scores from and keeps no second copy of.
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

  /// \brief Sketches one candidate column pair and adds it. Fails for a
  /// pair that cannot be sketched: an aggregation the value column's type
  /// does not support (e.g. avg over a string column), or a value column
  /// with no non-null value.
  Status AddCandidate(const Table& table, const ColumnPairRef& ref);

  /// \brief Adds a pre-built candidate sketch (the deserialization path).
  /// Rejects sketches that fail CheckIndexedSketch. The key postings go
  /// stale until the next BuildPostings or EvaluateAll.
  Status AddSketch(const ColumnPairRef& ref, Sketch sketch);

  /// \brief Brings the key postings up to date if an add made them stale,
  /// so no EvaluateAll has to; loaders call it before the index serves.
  /// Safe to call concurrently with EvaluateAll.
  void BuildPostings() const;

  /// \brief Reserves room for `candidates` candidates in total, so adding
  /// that many grows no per-candidate array (the loader knows the count).
  void Reserve(size_t candidates);

  /// \brief Indexes every extractable column pair of the repository.
  /// Pairs are sketched on the shared pool (ParallelFor, the query
  /// fan-out's thread budget) in bounded waves and appended in
  /// ExtractColumnPairs order, so the index is byte-identical to calling
  /// AddCandidate on each pair in turn. Column pairs that cannot be
  /// sketched (see AddCandidate) are skipped; returns the number indexed.
  Result<size_t> IndexRepository(const TableRepository& repository);

  /// \brief Evaluates the query against every candidate, fanning out
  /// through ParallelFor (`num_threads` 0 = DefaultThreadCount(), 1 =
  /// inline).
  /// Outcomes land in enumeration order, so results never depend on the
  /// thread count. Fails fast when the query's config differs from the
  /// index's in anything but min_join_size (CheckQueryConfig).
  ///
  /// Hot path: the query's train runs, in ascending key order, look their
  /// keys up in the index's key postings, which sums every candidate's
  /// join size and collects its matches in ascending key order without
  /// touching a candidate its keys miss. Candidates below the index's
  /// min_join_size are skipped there; the rest are scored in strips of 8
  /// by GatherAndScore, the tail `query.Estimate(sketch)` and paged shards
  /// reach through ScoreMergeJoin's per-candidate probe, so every path
  /// produces bit-identical results. The first call after an add builds
  /// the postings (BuildPostings); concurrent calls are safe.
  Result<IndexEvaluation> EvaluateAll(const JoinMIQuery& query,
                                      size_t num_threads = 0) const;

  // Searchable: the single-interface search path (search.h drives it).
  // `mode` is ignored — an unsharded index has no shard to lose.
  const JoinMIConfig& search_config() const override { return config_; }
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

 private:
  friend Result<SketchIndex> DeserializeIndex(const std::string& data);

  // AddSketch without reserving for a later lazy build: a loader builds
  // the postings itself, at their exact size.
  Status Append(const ColumnPairRef& ref, Sketch sketch);
  // Rebuilds the postings from every candidate's keys.
  void RebuildPostings() const;

  // One candidate entry holding a key: candidates_[candidate]'s sketch
  // entry `entry`.
  struct Posting {
    uint32_t candidate;
    uint32_t entry;
  };

  // Whether the postings match the candidates. It moves with the index; a
  // moved index gets a fresh mutex.
  struct PostingsState {
    std::atomic<bool> current{true};
    std::mutex build;

    PostingsState() = default;
    PostingsState(PostingsState&& other) noexcept
        : current(other.current.load()) {}
    PostingsState& operator=(PostingsState&& other) noexcept {
      current.store(other.current.load());
      return *this;
    }
  };

  JoinMIConfig config_;
  std::vector<IndexedCandidate> candidates_;
  // Entries over every candidate: the postings' size.
  size_t num_entries_ = 0;
  // The key postings: every distinct candidate key hash in ascending order,
  // key p's postings at [posting_begin_[p], posting_begin_[p + 1]) of
  // postings_ in candidate order, and a bucket directory over the keys
  // (BuildBucketDirectory, one bucket per key) that a train run looks its
  // key up in. A train run's postings give every candidate holding its
  // key, so a query reads the postings of its ~256 keys instead of probing
  // all 256 keys of every candidate: on discovery_bench sparse_lake, where
  // ~4% of candidates join, that probe cost 424 ns per candidate and the
  // postings pass costs 25. Each distinct key is held here once, beside
  // the key columns of the sketches. Built by counting sort
  // (RebuildPostings) in loaders, or by the first evaluate after an add.
  // AddSketch reserves every array for the case of all keys distinct, so a
  // lazy build never allocates index memory under a reader.
  mutable std::vector<uint64_t> posting_keys_;
  mutable std::vector<uint32_t> posting_begin_{0};
  mutable std::vector<Posting> postings_;
  mutable std::vector<uint32_t> posting_buckets_;
  mutable unsigned posting_shift_ = 0;
  mutable PostingsState postings_state_;
};

/// \brief A "JMIX" buffer split into its config and its encoded candidate
/// records, in order.
struct IndexRecords {
  JoinMIConfig config;
  std::vector<std::string> records;
};

/// \brief Frames encoded candidate records as a "JMIX" buffer: the header
/// for `config` and the record count, then the records.
std::string EncodeIndexRecords(const JoinMIConfig& config,
                               const std::vector<std::string>& records);

/// \brief Splits a "JMIX" buffer into its config and records; validates
/// the header and every record's field lengths, but parses no sketch.
Result<IndexRecords> DecodeIndexRecords(const std::string& data);

/// \brief Decodes one encoded record (candidate `i` of `count`) and runs
/// CheckIndexedSketch under `config`: the per-record check of
/// VerifyIndexRecords, for records framed another way (paged shards).
/// Errors name the candidate as "candidate i of N".
Status VerifyCandidateRecord(const JoinMIConfig& config,
                             const std::string& record, size_t i,
                             size_t count);

/// \brief Every check DeserializeIndex makes, without building an index.
/// Errors name the candidate as "candidate i of N".
Status VerifyIndexRecords(const std::string& data);

/// \brief Serializes the index (config, refs, sketches) to a binary string.
std::string SerializeIndex(const SketchIndex& index);

/// \brief Parses a serialized index; validates magic, version, enum tags,
/// and every embedded sketch, so corrupted inputs fail cleanly. The key
/// postings are rebuilt on load.
Result<SketchIndex> DeserializeIndex(const std::string& data);

/// \brief Writes the index to a file.
Status WriteIndexFile(const SketchIndex& index, const std::string& path);

/// \brief Reads an index from a file.
Result<SketchIndex> ReadIndexFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SKETCH_INDEX_H_
