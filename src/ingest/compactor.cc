#include "src/ingest/compactor.h"

#include <cstdio>
#include <utility>

#include "src/ingest/delta_segment.h"
#include "src/ingest/generation.h"
#include "src/sketch/serialize.h"

namespace joinmi {
namespace ingest {

namespace {

std::string CompactedShardName(size_t shard, uint64_t epoch,
                               ShardFileFormat format) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard_%05zu.g%06llu", shard,
                static_cast<unsigned long long>(epoch));
  return name + std::string(ShardFileExtension(format));
}

}  // namespace

Result<ShardManifestEntry> Compactor::CompactShard(
    size_t shard, uint64_t target_epoch) const {
  if (shard >= manifest_.shards.size()) {
    return Status::IndexError("shard " + std::to_string(shard) +
                              " out of range");
  }
  ShardManifestEntry entry = manifest_.shards[shard];
  if (!entry.has_delta()) return entry;

  const std::string delta_resolved =
      ResolveManifestEntryPath(entry.delta_path, dir_);
  JOINMI_ASSIGN_OR_RETURN(
      DeltaSegmentContents delta,
      ReadDeltaSegmentPrefix(delta_resolved, entry.delta_bytes,
                             entry.delta_checksum));
  if (delta.records.size() != entry.delta_records) {
    return Status::InvalidArgument(
        "delta segment '" + delta_resolved + "' committed prefix holds " +
        std::to_string(delta.records.size()) + " records, manifest says " +
        std::to_string(entry.delta_records));
  }

  // Rebuild the shard exactly as build_shards would have written it had
  // the appended candidates been present from the start: the base's
  // records then the delta's (base then delta == global-index order),
  // framed by the same writer in the base's format and page size, so the
  // output is byte-identical to a from-scratch build.
  JOINMI_ASSIGN_OR_RETURN(ShardRecords shard_records,
                          ReadShardRecords(entry, dir_));
  shard_records.records.reserve(static_cast<size_t>(entry.candidate_count));
  for (DeltaRecord& record : delta.records) {
    shard_records.records.push_back(std::move(record.payload));
  }
  JOINMI_ASSIGN_OR_RETURN(
      std::string bytes,
      EncodeShardFile(manifest_.config, shard_records.records,
                      shard_records.layout));

  const std::string new_name =
      CompactedShardName(shard, target_epoch, entry.format);
  const std::string new_path = ResolveManifestEntryPath(new_name, dir_);
  JOINMI_RETURN_NOT_OK(WriteFileDurable(new_path, bytes));

  // Verify what actually landed on disk before the entry can be
  // published: re-read, checksum, and check its format.
  JOINMI_ASSIGN_OR_RETURN(std::string reread, wire::ReadFileBytes(new_path));
  const uint64_t checksum = wire::Checksum64(reread);
  if (checksum != wire::Checksum64(bytes)) {
    return Status::IOError("compacted shard '" + new_path +
                           "' read back different bytes than were written");
  }
  const Status verified = VerifyShardFile(new_path, entry.format);
  if (!verified.ok()) {
    return Status::IOError("compacted shard '" + new_path +
                           "' fails verification: " + verified.message());
  }

  entry.path = new_name;
  entry.checksum = checksum;
  entry.delta_path.clear();
  entry.delta_records = 0;
  entry.delta_bytes = 0;
  entry.delta_checksum = 0;
  return entry;
}

}  // namespace ingest
}  // namespace joinmi
