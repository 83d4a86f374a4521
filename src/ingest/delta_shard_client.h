// DeltaShardClient: the read side of a shard with an uncompacted delta.
//
// A base shard file (whole-file JMIX or paged JMPS) stays immutable while
// appends accumulate in its JMDS sidecar; this client overlays the two so
// a query sees base+delta candidates merged by (MI desc, global insertion
// index asc) through topk_merge.h's MergeRanked, the merge the cross-shard
// fan-out uses.
// Because appended candidates always carry larger global indices than the
// base, and the per-side top-k is taken under that total order, the
// overlay's top-k is bit-identical to a from-scratch rebuild holding the
// same candidates. The fan-out, router, and RPC layers never know the
// shard is composite.

#ifndef JOINMI_INGEST_DELTA_SHARD_CLIENT_H_
#define JOINMI_INGEST_DELTA_SHARD_CLIENT_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {
namespace ingest {

/// \brief ShardClient overlaying a base shard with its delta segment.
class DeltaShardClient : public ShardClient {
 public:
  /// \brief Wraps `base` (the immutable shard file) and `delta` (an
  /// in-memory client over the published delta records). Rejects config
  /// disagreement — a delta appended under a different config could never
  /// coordinate with the base's sketches.
  static Result<std::unique_ptr<DeltaShardClient>> Create(
      std::unique_ptr<ShardClient> base, std::unique_ptr<ShardClient> delta);

  const JoinMIConfig& config() const override { return base_->config(); }
  size_t num_candidates() const override {
    return base_->num_candidates() + delta_->num_candidates();
  }
  Result<TopKSearchResult> Search(const JoinMIQuery& query, size_t k,
                                  size_t num_threads) const override;

  /// \brief The immutable base client — instrumentation seam so a stats
  /// snapshot can still reach e.g. paged buffer-pool counters through the
  /// overlay.
  const ShardClient& base() const { return *base_; }
  size_t delta_candidates() const { return delta_->num_candidates(); }

 private:
  DeltaShardClient(std::unique_ptr<ShardClient> base,
                   std::unique_ptr<ShardClient> delta)
      : base_(std::move(base)), delta_(std::move(delta)) {}

  std::unique_ptr<ShardClient> base_;
  std::unique_ptr<ShardClient> delta_;
};

/// \brief Loads the published delta of `entry` (path resolved relative to
/// `manifest_dir`) and overlays it onto `base`: reads exactly the
/// manifest-pinned committed prefix (failing loudly on any damage),
/// checks each record's global index against the manifest's tail, and
/// returns base when the entry has no delta.
Result<std::unique_ptr<ShardClient>> LoadDeltaOverlay(
    std::unique_ptr<ShardClient> base, const ShardManifestEntry& entry,
    const std::string& manifest_dir);

}  // namespace ingest
}  // namespace joinmi

#endif  // JOINMI_INGEST_DELTA_SHARD_CLIENT_H_
