// Sharded sketch index: the repository-scale deployment of discovery
// search. A partitioner splits one SketchIndex across N shard index files
// and records the split in a versioned ShardManifest; a query is sketched
// once, fanned out to every shard, and the per-shard top-k lists are merged
// into a global top-k.
//
// Determinism contract: every candidate carries its *global* insertion
// index from the original unsharded enumeration (stored in the manifest).
// A shard answers with a TopKSearchResult whose hits carry those indices
// (SearchHit::global_index), selected by topk_merge.h's RankTopK, and the
// fan-out merges the shards' lists with its MergeRanked — the order key
// and both helpers are the ones the unsharded index-backed TopKJoinMISearch
// uses. Per-shard top-k under a total order loses nothing the global top-k
// could keep, so a K-shard search returns bit-identical rankings, global
// indices included, to the unsharded path for every K and either
// partitioning policy, duplicated candidates included.
//
// Serving boundary: queries reach shards through the ShardClient interface.
// LocalShardClient is the in-process implementation over a loaded
// SketchIndex; ReplicaShardClient (replica_router.h) implements the same
// three methods against remote shard server replicas without touching the
// fan-out or merge. Which one a router uses is decided by the
// ShardClientFactory handed to Load — local shard files and host:port
// endpoints are interchangeable deployments of the same manifest.
//
// Availability: a search runs in one of two modes. Strict (the default, and
// the only behavior before networked serving existed) fails the whole
// query on the first shard error, deterministically in shard order.
// Degraded answers from the shards that responded, reporting every failed
// shard in TopKSearchResult::shard_failures — the router keeps serving
// through single-shard outages and the caller can see exactly what the
// answer is missing. A degraded query with zero healthy shards still
// fails: an answer from nothing would be indistinguishable from an empty
// repository.

#ifndef JOINMI_DISCOVERY_SHARDED_INDEX_H_
#define JOINMI_DISCOVERY_SHARDED_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/join_mi.h"
#include "src/discovery/searchable.h"
#include "src/discovery/shard_manifest.h"
#include "src/discovery/sketch_index.h"

namespace joinmi {

/// \brief Serving boundary of one shard — the RPC seam. The query arrives
/// pre-sketched (over the wire this is the serialized train sketch), so
/// shards never see the base table's rows.
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  /// \brief The shard's JoinMIConfig; all shards of one index must agree.
  virtual const JoinMIConfig& config() const = 0;

  /// \brief Candidates this shard holds.
  virtual size_t num_candidates() const = 0;

  /// \brief This shard's top-k for the query, ordered by
  /// (MI desc, global index asc); each hit's global_index is its
  /// candidate's global insertion index. `num_threads` 0 =
  /// DefaultThreadCount().
  virtual Result<TopKSearchResult> Search(const JoinMIQuery& query,
                                          size_t k,
                                          size_t num_threads) const = 0;
};

/// \brief Checks a shard's global index mapping: one index for each of its
/// `count` candidates, strictly increasing.
Status CheckGlobalIndices(size_t count,
                          const std::vector<uint64_t>& global_indices);

/// \brief In-process ShardClient over a loaded SketchIndex.
class LocalShardClient : public ShardClient {
 public:
  /// \brief Wraps `index`; `global_indices[i]` is local candidate i's index
  /// in the original unsharded enumeration. Rejects a mapping that fails
  /// CheckGlobalIndices.
  static Result<std::unique_ptr<LocalShardClient>> Create(
      SketchIndex index, std::vector<uint64_t> global_indices);

  const JoinMIConfig& config() const override { return index_.config(); }
  size_t num_candidates() const override { return index_.size(); }
  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads) const override;

 private:
  LocalShardClient(SketchIndex index, std::vector<uint64_t> global_indices)
      : index_(std::move(index)),
        global_indices_(std::move(global_indices)) {}

  SketchIndex index_;
  std::vector<uint64_t> global_indices_;
};

/// \brief Builds the ShardClient serving shard `shard` of `manifest`.
/// `manifest_dir` is the directory holding the manifest file (where
/// relative shard paths resolve), empty when the manifest never touched
/// disk. The factory seam is what makes local files and remote endpoints
/// interchangeable deployments: Load neither knows nor cares which one it
/// is wiring up.
using ShardClientFactory =
    std::function<Result<std::unique_ptr<ShardClient>>(
        const ShardManifest& manifest, size_t shard,
        const std::string& manifest_dir)>;

/// \brief Knobs for loading paged shards (PagedShardClient::Options);
/// ignored for whole-file ones.
struct LocalShardLoadOptions {
  /// Buffer-pool budget per paged shard, in pages.
  size_t pool_pages = 64;
};

/// \brief A partitioned index: the manifest plus one client per shard.
class ShardedSketchIndex : public Searchable {
 public:
  /// \brief Assembles a sharded index from an already-validated manifest
  /// and matching clients (the seam for remote shards). Rejects
  /// zero-shard manifests, client counts or per-shard candidate counts
  /// that disagree with the manifest, and shards whose configs differ.
  static Result<ShardedSketchIndex> Create(
      ShardManifest manifest,
      std::vector<std::unique_ptr<ShardClient>> clients);

  /// \brief Loads a manifest and builds one client per shard through
  /// `factory`. LocalFileFactory() reads shard files next to the
  /// manifest; ReplicaShardClient::Factory (replica_router.h) dials
  /// host:port endpoints instead.
  static Result<ShardedSketchIndex> Load(const std::string& manifest_path,
                                         const ShardClientFactory& factory);

  /// \brief Loads a manifest and every shard file it names (paths resolved
  /// relative to the manifest's directory) — Load with LocalFileFactory().
  static Result<ShardedSketchIndex> Load(const std::string& manifest_path);

  /// \brief The factory behind single-argument Load: opens each shard
  /// file named by the manifest in its recorded format. A whole-file
  /// "JMIX" shard is checked against the manifest checksum and candidate
  /// count before use, so a truncated, bit-flipped or swapped file fails
  /// with InvalidArgument instead of giving wrong rankings. A paged "JMPS"
  /// shard opens by header + directory only, skipping the O(shard)
  /// whole-file checksum that would defeat lazy loading: its header,
  /// directory and page checksums cover every byte a query touches, and
  /// its header version refuses a file of row-format (v2) sketches.
  static ShardClientFactory LocalFileFactory(
      const LocalShardLoadOptions& options = LocalShardLoadOptions());

  const ShardManifest& manifest() const { return manifest_; }
  /// \brief The shards' agreed JoinMIConfig. Create guarantees at least
  /// one client exists and that all clients agree.
  const JoinMIConfig& config() const { return clients_[0]->config(); }
  size_t num_shards() const { return clients_.size(); }
  /// \brief The client serving shard `shard` — instrumentation seam: the
  /// Router's stats snapshot downcasts to read pool/replica counters.
  const ShardClient& client(size_t shard) const { return *clients_[shard]; }
  /// \brief Total candidates across all shards.
  size_t size() const { return static_cast<size_t>(manifest_.total_candidates); }

  // Searchable: fans the query out to every shard through ParallelFor
  // (each shard's own strips share the same `num_threads` budget and pool)
  // and merges the per-shard top-k lists by (MI desc, global index asc).
  // Identical results for any thread count. See ShardQueryMode for how
  // shard failures are handled.
  const JoinMIConfig& search_config() const override { return config(); }
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

  /// \brief SearchQuery with the default thread budget and strict mode.
  Result<TopKSearchResult> Search(
      const JoinMIQuery& query, size_t k, size_t num_threads = 0,
      ShardQueryMode mode = ShardQueryMode::kStrict) const {
    return SearchQuery(query, k, num_threads, mode);
  }

 private:
  ShardedSketchIndex(ShardManifest manifest,
                     std::vector<std::unique_ptr<ShardClient>> clients)
      : manifest_(std::move(manifest)), clients_(std::move(clients)) {}

  ShardManifest manifest_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
};

/// \brief Deterministic shard assignment for candidate `ref` at enumeration
/// index `index` — exposed so tests and tools agree with the partitioner.
size_t AssignShard(ShardPartitionPolicy policy, size_t index,
                   const ColumnPairRef& ref, size_t num_shards);

/// \brief How BuildShards lays shard files out on disk.
struct ShardBuildOptions {
  /// kWholeFile writes "JMIX" index files (shard_NNNNN.jmix); kPaged
  /// writes "JMPS" paged files (shard_NNNNN.jmps) servable without full
  /// materialization.
  ShardFileFormat format = ShardFileFormat::kWholeFile;
  /// Page size for paged shards; ignored for whole-file ones.
  uint32_t page_size = 4096;
};

/// \brief Partitions `index` into `num_shards` shard files inside
/// `output_dir` (created if missing), writes `manifest.jmim` next to
/// them, and returns the manifest path. The split is a pure function of
/// (index contents, policy, num_shards, options); rebuilding produces
/// byte-identical shard files and manifest.
Result<std::string> BuildShards(const SketchIndex& index, size_t num_shards,
                                ShardPartitionPolicy policy,
                                const std::string& output_dir,
                                const ShardBuildOptions& options = {});

// A shard file is its config plus encoded candidate records (sketch_index.h
// EncodeCandidateRecord), each embedding its sketch's columns in the v3
// sketch format; JMIX decodes every record at load and JMPS (v2) only on a
// probe. These three functions choose between "JMIX" and "JMPS" for
// writing, reading and verifying one.

/// \brief The bytes of a shard file holding `records` under `config` in
/// `layout`. BuildShards and compaction both write through it, so a
/// compacted shard is byte-identical to a from-scratch build.
Result<std::string> EncodeShardFile(const JoinMIConfig& config,
                                    const std::vector<std::string>& records,
                                    const ShardBuildOptions& layout);

/// \brief A base shard file's encoded records and the layout it was
/// written in (a whole-file shard reports the default page size).
struct ShardRecords {
  ShardBuildOptions layout;
  std::vector<std::string> records;
};

/// \brief Reads the records of the base shard file `entry` names. A
/// whole-file shard must match the entry's checksum (a paged one's pages
/// are checked as read); either must hold base_candidate_count() records.
Result<ShardRecords> ReadShardRecords(const ShardManifestEntry& entry,
                                      const std::string& manifest_dir);

/// \brief Checks the shard file at `path`: every "JMIX" record
/// (VerifyIndexRecords), or every "JMPS" page and the directory
/// (storage::VerifyPagedShardFile, errors prefixed "page i: ") and then
/// every record (VerifyCandidateRecord, errors naming "candidate i of N").
Status VerifyShardFile(const std::string& path, ShardFileFormat format);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SHARDED_INDEX_H_
