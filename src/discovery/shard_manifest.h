// Shard manifest for a partitioned sketch index: the versioned on-disk
// record of how a candidate repository was split across N shard index
// files. The manifest is the unit of deployment — a serving tier loads it,
// opens (or connects to) every shard it names, and can verify that what it
// opened is exactly what the partitioner wrote: per shard it stores the
// index file path, the candidate count, a content checksum over the raw
// file bytes, and the candidates' *global* insertion indices in the
// original unsharded enumeration.
//
// The global indices are what make a fan-out search bit-identical to the
// unsharded one: the unsharded top-k breaks MI ties on insertion order, so
// a cross-shard merge needs each hit's position in that order — local shard
// positions are not enough once candidates interleave (hash partitioning)
// or duplicate across shards. Storing them also keeps the manifest
// self-describing for partitioning policies whose assignment cannot be
// re-derived from shard contents alone.
//
// On-disk format ("JMIM" v5, little-endian):
//   magic "JMIM" | u32 version | u8 policy
//   | the shared JoinMIConfig wire layout (core/config.h)
//   | u64 epoch | u64 shard_count | u64 total_candidates
//   | per shard: path (u32 length + bytes, relative to the manifest's
//     directory), u64 candidate_count, u64 checksum, u8 format,
//     u8 has_delta, then when has_delta == 1: delta path
//     (u32 length + bytes), u64 delta_records, u64 delta_bytes,
//     u64 delta_checksum; then candidate_count x u64 global index
//
// Version history: v1 held policy, shards and global indices; v2 added an
// optional embedded JoinMIConfig, v3 a per-shard format tag, v4 the
// manifest epoch and per-shard delta-segment references. v5 is v4 with
// the config always present (no has_config byte), and it is the only
// version written or read: any other version fails with a message naming
// build_shards, which rebuilds the shards and a v5 manifest from the
// source index. The embedded config lets a router that holds only the
// manifest (shard files on remote servers) sketch queries and check
// config agreement at the serving handshake; the format tag lets loaders
// dispatch between whole-file "JMIX" and paged "JMPS" shards; the epoch
// names the generation (src/ingest/generation.h) and a delta reference
// pins the committed prefix of an appendable "JMDS" sidecar
// (src/ingest/delta_segment.h).

#ifndef JOINMI_DISCOVERY_SHARD_MANIFEST_H_
#define JOINMI_DISCOVERY_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"

namespace joinmi {

/// \brief How candidates are assigned to shards. Both policies are pure
/// functions of (enumeration index, ref, shard count), so partitioning the
/// same index the same way always yields the same shards.
enum class ShardPartitionPolicy : uint8_t {
  /// Candidate i goes to shard i % N — perfectly balanced counts.
  kRoundRobin = 0,
  /// All candidates of one table land on the same shard (hash of the table
  /// name) — dataset locality for per-table updates, at the cost of skew.
  kHashByDataset = 1,
};

const char* ShardPartitionPolicyToString(ShardPartitionPolicy policy);

/// \brief Parses the CLI spellings "round_robin" / "hash_dataset".
Result<ShardPartitionPolicy> ParseShardPartitionPolicy(
    const std::string& name);

/// \brief On-disk representation of one shard file.
enum class ShardFileFormat : uint8_t {
  /// A "JMIX" index file, deserialized whole into memory at load.
  kWholeFile = 0,
  /// A "JMPS" paged file (src/storage/paged_shard_file.h), opened by
  /// header + directory and served through a buffer pool.
  kPaged = 1,
};

const char* ShardFileFormatToString(ShardFileFormat format);

/// \brief The file extension of a shard file of `format`: ".jmix" or
/// ".jmps".
const char* ShardFileExtension(ShardFileFormat format);

/// \brief Parses the CLI spellings "whole" / "paged".
Result<ShardFileFormat> ParseShardFileFormat(const std::string& name);

/// \brief One shard's entry in the manifest.
struct ShardManifestEntry {
  /// Shard index file, relative to the directory holding the manifest
  /// (absolute paths are honored as-is when loading).
  std::string path;
  /// Candidates the shard serves: base file plus delta records.
  uint64_t candidate_count = 0;
  /// wire::Checksum64 over the base shard file's raw bytes (the delta
  /// sidecar is covered separately by delta_checksum below).
  uint64_t checksum = 0;
  /// For each local candidate (in shard insertion order) its index in the
  /// original unsharded enumeration; strictly increasing within a shard.
  /// Base candidates come first, delta candidates after (appends always
  /// receive larger global indices than anything already built).
  std::vector<uint64_t> global_indices;
  /// How the base shard file is laid out on disk (kept after the vector
  /// so pre-paged aggregate initializers keep compiling).
  ShardFileFormat format = ShardFileFormat::kWholeFile;
  /// Delta segment sidecar ("JMDS", src/ingest/delta_segment.h) holding
  /// the shard's last `delta_records` candidates, empty when the shard
  /// has no published delta. Like `path`, relative to the manifest's
  /// directory. delta_bytes/delta_checksum pin the committed prefix of
  /// the (append-only) delta file this manifest generation covers, so a
  /// loader never reads past what was published and fails loudly if the
  /// published bytes are damaged.
  std::string delta_path;
  uint64_t delta_records = 0;
  uint64_t delta_bytes = 0;
  uint64_t delta_checksum = 0;

  /// \brief Candidates in the base shard file alone.
  uint64_t base_candidate_count() const {
    return candidate_count - delta_records;
  }
  bool has_delta() const { return delta_records > 0; }
};

/// \brief The full partitioning record ("JMIM" v5).
struct ShardManifest {
  ShardPartitionPolicy policy = ShardPartitionPolicy::kRoundRobin;
  /// The JoinMIConfig every shard of this partition was built under —
  /// what a shard-file-less router sketches queries with and what the
  /// serving handshake checks agreement against.
  JoinMIConfig config;
  /// Monotonic generation number of this manifest within its deployment
  /// (src/ingest/generation.h). A fresh build_shards output is epoch 0;
  /// every ingest publish or compaction bumps it.
  uint64_t epoch = 0;
  /// Candidates across all shards (== the unsharded index size).
  uint64_t total_candidates = 0;
  std::vector<ShardManifestEntry> shards;

  /// \brief Structural consistency: at least one shard, per-shard index
  /// lists matching candidate_count and strictly increasing, and the union
  /// of all global indices being exactly {0, ..., total_candidates - 1}
  /// (every candidate assigned to exactly one shard slot).
  Status Validate() const;
};

/// \brief Serializes the manifest to its binary format.
std::string SerializeManifest(const ShardManifest& manifest);

/// \brief Parses a serialized manifest; validates magic, version (v5
/// only), policy and format tags, and structural consistency
/// (Validate()), so corrupted, tampered or other-version manifests fail
/// cleanly.
Result<ShardManifest> DeserializeManifest(const std::string& data);

/// \brief `path` as a manifest names it: relative to `manifest_dir`, the
/// directory holding the manifest, unless it is absolute.
std::string ResolveManifestEntryPath(const std::string& path,
                                     const std::string& manifest_dir);

/// \brief Writes the manifest to a file.
Status WriteManifestFile(const ShardManifest& manifest,
                         const std::string& path);

/// \brief Reads and validates a manifest from a file.
Result<ShardManifest> ReadManifestFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SHARD_MANIFEST_H_
