#include "src/discovery/shard_manifest.h"

#include <cstring>
#include <filesystem>

#include "src/sketch/serialize.h"

namespace joinmi {

namespace {

constexpr char kManifestMagic[4] = {'J', 'M', 'I', 'M'};
// The one layout this build writes and reads (see shard_manifest.h).
constexpr uint32_t kManifestVersion = 5;

}  // namespace

const char* ShardPartitionPolicyToString(ShardPartitionPolicy policy) {
  switch (policy) {
    case ShardPartitionPolicy::kRoundRobin:
      return "round_robin";
    case ShardPartitionPolicy::kHashByDataset:
      return "hash_dataset";
  }
  return "unknown";
}

Result<ShardPartitionPolicy> ParseShardPartitionPolicy(
    const std::string& name) {
  if (name == "round_robin") return ShardPartitionPolicy::kRoundRobin;
  if (name == "hash_dataset") return ShardPartitionPolicy::kHashByDataset;
  return Status::InvalidArgument(
      "unknown partition policy '" + name +
      "' (expected round_robin or hash_dataset)");
}

const char* ShardFileFormatToString(ShardFileFormat format) {
  switch (format) {
    case ShardFileFormat::kWholeFile:
      return "whole";
    case ShardFileFormat::kPaged:
      return "paged";
  }
  return "unknown";
}

const char* ShardFileExtension(ShardFileFormat format) {
  return format == ShardFileFormat::kPaged ? ".jmps" : ".jmix";
}

Result<ShardFileFormat> ParseShardFileFormat(const std::string& name) {
  if (name == "whole") return ShardFileFormat::kWholeFile;
  if (name == "paged") return ShardFileFormat::kPaged;
  return Status::InvalidArgument("unknown shard file format '" + name +
                                 "' (expected whole or paged)");
}

Status ShardManifest::Validate() const {
  if (shards.empty()) {
    return Status::InvalidArgument("manifest names no shards");
  }
  // First pass: allocation-free consistency checks. The counted == total
  // comparison must come before the bitmap below, so a tampered
  // total_candidates cannot force a huge allocation — after it, the bitmap
  // is bounded by the index lists actually held in memory.
  uint64_t counted = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardManifestEntry& entry = shards[s];
    const std::string where = "shard " + std::to_string(s) + " ('" +
                              entry.path + "')";
    if (entry.path.empty()) {
      return Status::InvalidArgument(where + " has an empty path");
    }
    if (entry.global_indices.size() != entry.candidate_count) {
      return Status::InvalidArgument(
          where + " declares " + std::to_string(entry.candidate_count) +
          " candidates but lists " +
          std::to_string(entry.global_indices.size()) + " global indices");
    }
    if (entry.delta_records > entry.candidate_count) {
      return Status::InvalidArgument(
          where + " claims " + std::to_string(entry.delta_records) +
          " delta records but only " +
          std::to_string(entry.candidate_count) + " candidates");
    }
    if (entry.delta_path.empty() != (entry.delta_records == 0 &&
                                     entry.delta_bytes == 0 &&
                                     entry.delta_checksum == 0)) {
      return Status::InvalidArgument(
          where + " has inconsistent delta fields (path and "
                  "records/bytes/checksum must be set together)");
    }
    if (!entry.delta_path.empty() && entry.delta_records == 0) {
      return Status::InvalidArgument(
          where + " names a delta segment with zero records");
    }
    counted += entry.candidate_count;
    for (size_t i = 0; i < entry.global_indices.size(); ++i) {
      const uint64_t g = entry.global_indices[i];
      if (g >= total_candidates) {
        return Status::InvalidArgument(
            where + " lists global index " + std::to_string(g) +
            " outside the manifest total " +
            std::to_string(total_candidates));
      }
      if (i > 0 && entry.global_indices[i - 1] >= g) {
        return Status::InvalidArgument(
            where + " global indices are not strictly increasing");
      }
    }
  }
  if (counted != total_candidates) {
    return Status::InvalidArgument(
        "shard candidate counts sum to " + std::to_string(counted) +
        " but the manifest total is " + std::to_string(total_candidates));
  }
  // Second pass: every global index claimed by exactly one shard slot.
  // With counts reconciled, exactly `total_candidates` claims exist, so a
  // duplicate is the only remaining way the bitmap can miss a slot.
  std::vector<bool> seen(static_cast<size_t>(total_candidates), false);
  for (const ShardManifestEntry& entry : shards) {
    for (const uint64_t g : entry.global_indices) {
      if (seen[static_cast<size_t>(g)]) {
        return Status::InvalidArgument(
            "global index " + std::to_string(g) +
            " is assigned to more than one shard slot");
      }
      seen[static_cast<size_t>(g)] = true;
    }
  }
  return Status::OK();
}

std::string SerializeManifest(const ShardManifest& manifest) {
  std::string out;
  wire::AppendRaw(&out, kManifestMagic, sizeof(kManifestMagic));
  wire::AppendPod<uint32_t>(&out, kManifestVersion);
  wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(manifest.policy));
  AppendJoinMIConfig(&out, manifest.config);
  wire::AppendPod<uint64_t>(&out, manifest.epoch);
  wire::AppendPod<uint64_t>(&out, manifest.shards.size());
  wire::AppendPod<uint64_t>(&out, manifest.total_candidates);
  for (const ShardManifestEntry& entry : manifest.shards) {
    wire::AppendLengthPrefixed(&out, entry.path);
    wire::AppendPod<uint64_t>(&out, entry.candidate_count);
    wire::AppendPod<uint64_t>(&out, entry.checksum);
    wire::AppendPod<uint8_t>(&out, static_cast<uint8_t>(entry.format));
    const uint8_t has_delta = entry.delta_path.empty() ? 0 : 1;
    wire::AppendPod<uint8_t>(&out, has_delta);
    if (has_delta) {
      wire::AppendLengthPrefixed(&out, entry.delta_path);
      wire::AppendPod<uint64_t>(&out, entry.delta_records);
      wire::AppendPod<uint64_t>(&out, entry.delta_bytes);
      wire::AppendPod<uint64_t>(&out, entry.delta_checksum);
    }
    for (uint64_t g : entry.global_indices) {
      wire::AppendPod<uint64_t>(&out, g);
    }
  }
  return out;
}

Result<ShardManifest> DeserializeManifest(const std::string& data) {
  wire::Reader reader(data);
  char magic[4];
  JOINMI_RETURN_NOT_OK(reader.Read(&magic));
  if (std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::IOError("bad shard manifest magic");
  }
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&version));
  if (version != kManifestVersion) {
    return Status::IOError(
        "unsupported shard manifest version " + std::to_string(version) +
        "; this build reads only JMIM v" + std::to_string(kManifestVersion) +
        " — rebuild the shards and manifest from the source index with "
        "build_shards");
  }
  uint8_t policy = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&policy));
  if (policy > static_cast<uint8_t>(ShardPartitionPolicy::kHashByDataset)) {
    return Status::IOError("unknown partition policy tag in shard manifest");
  }
  ShardManifest manifest;
  manifest.policy = static_cast<ShardPartitionPolicy>(policy);
  JOINMI_ASSIGN_OR_RETURN(manifest.config, ReadJoinMIConfig(&reader));
  JOINMI_RETURN_NOT_OK(reader.Read(&manifest.epoch));
  uint64_t shard_count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&shard_count));
  JOINMI_RETURN_NOT_OK(reader.Read(&manifest.total_candidates));
  // Each shard record takes at least 22 bytes (path length prefix + count +
  // checksum + format + has_delta); divide rather than multiply so a
  // crafted count cannot overflow past the check.
  if (shard_count > reader.remaining() / 22) {
    return Status::IOError("manifest shard count exceeds buffer size");
  }
  manifest.shards.reserve(static_cast<size_t>(shard_count));
  for (uint64_t s = 0; s < shard_count; ++s) {
    ShardManifestEntry entry;
    JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&entry.path));
    JOINMI_RETURN_NOT_OK(reader.Read(&entry.candidate_count));
    JOINMI_RETURN_NOT_OK(reader.Read(&entry.checksum));
    uint8_t format = 0;
    JOINMI_RETURN_NOT_OK(reader.Read(&format));
    if (format > static_cast<uint8_t>(ShardFileFormat::kPaged)) {
      return Status::IOError("unknown shard file format tag " +
                             std::to_string(format) + " in shard manifest");
    }
    entry.format = static_cast<ShardFileFormat>(format);
    uint8_t has_delta = 0;
    JOINMI_RETURN_NOT_OK(reader.Read(&has_delta));
    if (has_delta > 1) {
      return Status::IOError("bad delta presence flag in shard manifest");
    }
    if (has_delta == 1) {
      JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&entry.delta_path));
      JOINMI_RETURN_NOT_OK(reader.Read(&entry.delta_records));
      JOINMI_RETURN_NOT_OK(reader.Read(&entry.delta_bytes));
      JOINMI_RETURN_NOT_OK(reader.Read(&entry.delta_checksum));
    }
    if (entry.candidate_count > reader.remaining() / sizeof(uint64_t)) {
      return Status::IOError("manifest shard candidate count exceeds buffer");
    }
    entry.global_indices.reserve(static_cast<size_t>(entry.candidate_count));
    for (uint64_t i = 0; i < entry.candidate_count; ++i) {
      uint64_t g = 0;
      JOINMI_RETURN_NOT_OK(reader.Read(&g));
      entry.global_indices.push_back(g);
    }
    manifest.shards.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after shard manifest payload");
  }
  JOINMI_RETURN_NOT_OK(manifest.Validate());
  return manifest;
}

std::string ResolveManifestEntryPath(const std::string& path,
                                     const std::string& manifest_dir) {
  return std::filesystem::path(path).is_absolute()
             ? path
             : (std::filesystem::path(manifest_dir) / path).string();
}

Status WriteManifestFile(const ShardManifest& manifest,
                         const std::string& path) {
  JOINMI_RETURN_NOT_OK(manifest.Validate());
  return wire::WriteFileBytes(SerializeManifest(manifest), path);
}

Result<ShardManifest> ReadManifestFile(const std::string& path) {
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  return DeserializeManifest(data);
}

}  // namespace joinmi
