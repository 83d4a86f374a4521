// IngestCoordinator: the single-writer control plane of a mutable
// deployment directory.
//
// One coordinator owns the write path of one deployment: it appends
// candidates durably into per-shard delta segments (routed by the
// manifest's partition policy, numbered by global insertion index exactly
// as a from-scratch build would number them), publishes new manifest
// generations, and drives compaction — all through the CURRENT-pointer
// swap (generation.h), so readers always load a complete, checksum-valid
// generation and serving flips epochs atomically.
//
// Separation of durable vs visible: Append() commits records to the
// delta files (they survive a crash) but serving ignores them until
// Publish() pins them into a manifest generation and flips CURRENT. A
// coordinator re-opened after a crash recovers committed-but-unpublished
// records and carries on.

#ifndef JOINMI_INGEST_COORDINATOR_H_
#define JOINMI_INGEST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/delta_segment.h"

namespace joinmi {
namespace ingest {

/// \brief Write-path coordinator over one deployment directory.
class IngestCoordinator {
 public:
  /// \brief Opens the deployment at `dir` (resolving CURRENT), recovering
  /// any existing delta segments: torn tails are truncated, committed but
  /// unpublished records are re-adopted, and a delta holding fewer
  /// committed records than the manifest published is a hard error (the
  /// published state would be unservable).
  static Result<std::unique_ptr<IngestCoordinator>> Open(
      const std::string& dir);

  const ShardManifest& manifest() const { return manifest_; }
  uint64_t epoch() const { return manifest_.epoch; }
  const std::string& manifest_path() const { return manifest_path_; }
  /// Candidates the published manifest serves.
  uint64_t published_candidates() const {
    return manifest_.total_candidates;
  }
  /// Committed-but-unpublished candidates across all shards.
  uint64_t pending_candidates() const {
    return next_global_ - manifest_.total_candidates;
  }
  uint64_t next_global_index() const { return next_global_; }

  /// \brief Durably appends `candidates`: each gets the next global
  /// insertion index and the shard AssignShard picks for it, then lands
  /// in that shard's delta segment under a commit record. When this
  /// returns OK every record survives a crash; none is served until
  /// Publish().
  Status Append(const std::vector<CandidateRecord>& candidates);

  /// \brief Publishes every committed delta record as manifest generation
  /// epoch+1 and flips CURRENT. Returns the new epoch (legal with nothing
  /// pending — an empty generation bump).
  Result<uint64_t> Publish();

  /// \brief Folds every committed delta record (published or not) into
  /// fresh base files via the Compactor and publishes the compacted,
  /// delta-free manifest as epoch+1. Returns the new epoch.
  Result<uint64_t> Compact();

 private:
  IngestCoordinator() = default;

  /// Opens (or creates) the delta writer for `shard`.
  Result<DeltaSegmentWriter*> Writer(size_t shard);
  /// The manifest with every committed delta record folded into its
  /// entries — what Publish writes and Compact compacts.
  Result<ShardManifest> ManifestCoveringCommitted() const;
  Status WriteAndFlip(ShardManifest manifest);

  std::string dir_;
  std::string manifest_path_;
  ShardManifest manifest_;
  // writers_[s] is null until shard s first needs its delta.
  std::vector<std::unique_ptr<DeltaSegmentWriter>> writers_;
  uint64_t next_global_ = 0;
};

}  // namespace ingest
}  // namespace joinmi

#endif  // JOINMI_INGEST_COORDINATOR_H_
