// Compactor: folds a shard's delta segment into a fresh base file.
//
// Compaction rewrites one shard as if it had been built from scratch
// with every (base + published-and-unpublished-committed) candidate: the
// base file's encoded records (ReadShardRecords) followed by the delta's
// record payloads, framed by EncodeShardFile in the base's format and
// page size — the writer build_shards uses, so the compacted file is
// byte-identical to a from-scratch build of the same candidate set. No
// sketch is decoded into an index. The new base gets a generation-stamped
// name (shard_00001.g000002.jmix); the old base and delta files are never
// touched, so a reader holding the previous manifest generation keeps
// serving it untouched. The rewritten file is verified (re-read and
// checksum, then VerifyShardFile) before the coordinator publishes it
// through the same CURRENT swap as any other generation.

#ifndef JOINMI_INGEST_COMPACTOR_H_
#define JOINMI_INGEST_COMPACTOR_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {
namespace ingest {

/// \brief Rewrites shards of one deployment directory.
class Compactor {
 public:
  /// \brief `dir` is the deployment root (where the manifest's relative
  /// paths resolve); `manifest` is the generation being compacted.
  Compactor(std::string dir, const ShardManifest& manifest)
      : dir_(std::move(dir)), manifest_(manifest) {}

  /// \brief Folds shard `shard`'s committed delta records (all of
  /// `delta_records` — the caller passes an entry whose delta fields
  /// already cover what should be folded) into a fresh base file named
  /// for `target_epoch`, verifies it, and returns the rewritten manifest
  /// entry: new path/checksum, no delta fields, global_indices unchanged.
  Result<ShardManifestEntry> CompactShard(size_t shard,
                                          uint64_t target_epoch) const;

 private:
  std::string dir_;
  const ShardManifest& manifest_;
};

}  // namespace ingest
}  // namespace joinmi

#endif  // JOINMI_INGEST_COMPACTOR_H_
