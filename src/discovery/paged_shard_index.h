// PagedShardClient: the ShardClient over a "JMPS" paged shard file. Where
// LocalShardClient deserializes a whole "JMIX" file into a SketchIndex at
// load, this client opens the paged file by header + directory only and
// reads candidates lazily: a query faults each candidate's record bytes
// through the file's buffer pool, decodes the sketch, scores it with the
// same scoring kernel SketchIndex uses (in the same strips of 8), and drops
// it. Memory is bounded by the pool's page budget, not by shard size, and
// startup cost is O(directory) — the properties that let one server hold
// shards bigger than RAM and restart near-instantly.
//
// Determinism: Search mirrors LocalShardClient exactly — same fail-fast
// config check, same per-candidate outcome tally (estimate /
// OutOfRange-skipped / hard error), same scoring kernel, same top-k
// selection (topk_merge.h RankTopK) over the manifest's global indices — so
// rankings are bit-identical to the in-memory path for every
// k/policy/thread count, including under pools small enough to evict
// mid-query. One deliberate divergence in failure granularity: a page
// whose checksum fails on fault-in errors only the candidates whose
// records touch that page (counted in num_errors); the rest of the shard
// keeps answering.
//
// A record is a candidate record (sketch_index.h EncodeCandidateRecord,
// the same bytes a "JMIX" file stores per candidate); each is decoded
// with DecodeCandidateRecord.

#ifndef JOINMI_DISCOVERY_PAGED_SHARD_INDEX_H_
#define JOINMI_DISCOVERY_PAGED_SHARD_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/discovery/sharded_index.h"
#include "src/storage/paged_shard_file.h"

namespace joinmi {

/// \brief ShardClient over a paged shard file.
class PagedShardClient : public ShardClient {
 public:
  /// The pool budget the local-file loader passes on.
  using Options = LocalShardLoadOptions;

  /// \brief Opens `path` (header + directory only; no candidate record is
  /// read) and validates `global_indices` (CheckGlobalIndices).
  static Result<std::unique_ptr<PagedShardClient>> Open(
      const std::string& path, std::vector<uint64_t> global_indices,
      const Options& options = Options());

  const JoinMIConfig& config() const override { return file_->config(); }
  size_t num_candidates() const override { return file_->num_records(); }
  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads) const override;

  /// \brief Buffer-pool counters — the proof eviction did (or did not)
  /// happen under a given pool size.
  storage::BufferPoolStats pool_stats() const { return file_->pool_stats(); }
  /// \brief Bytes read at open vs file size — the no-full-materialization
  /// receipt.
  const storage::PagedOpenStats& open_stats() const {
    return file_->open_stats();
  }
  size_t pool_capacity() const { return file_->pool_capacity(); }

 private:
  PagedShardClient(std::unique_ptr<storage::PagedShardFile> file,
                   std::vector<uint64_t> global_indices)
      : file_(std::move(file)), global_indices_(std::move(global_indices)) {}

  std::unique_ptr<storage::PagedShardFile> file_;
  std::vector<uint64_t> global_indices_;
};

/// \brief The paged client under a serving client: `client` itself, or
/// the base of a delta overlay (ingest::DeltaShardClient) whose base is
/// paged. Null for whole-file and remote shards. The shard server and the
/// router's stats read buffer-pool gauges through it.
const PagedShardClient* PagedOf(const ShardClient& client);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_PAGED_SHARD_INDEX_H_
