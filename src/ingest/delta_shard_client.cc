#include "src/ingest/delta_shard_client.h"

#include <utility>
#include <vector>

#include "src/discovery/sketch_index.h"
#include "src/discovery/topk_merge.h"
#include "src/ingest/delta_segment.h"

namespace joinmi {
namespace ingest {

Result<std::unique_ptr<DeltaShardClient>> DeltaShardClient::Create(
    std::unique_ptr<ShardClient> base, std::unique_ptr<ShardClient> delta) {
  if (base == nullptr || delta == nullptr) {
    return Status::InvalidArgument("delta overlay needs both clients");
  }
  if (!(base->config() == delta->config())) {
    return Status::InvalidArgument(
        "delta segment was appended under a different JoinMIConfig than "
        "its base shard");
  }
  return std::unique_ptr<DeltaShardClient>(
      new DeltaShardClient(std::move(base), std::move(delta)));
}

Result<TopKSearchResult> DeltaShardClient::Search(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads) const {
  std::vector<TopKSearchResult> sides(2);
  JOINMI_ASSIGN_OR_RETURN(sides[0], base_->Search(query, k, num_threads));
  JOINMI_ASSIGN_OR_RETURN(sides[1], delta_->Search(query, k, num_threads));
  return internal::MergeRanked(std::move(sides), k);
}

Result<std::unique_ptr<ShardClient>> LoadDeltaOverlay(
    std::unique_ptr<ShardClient> base, const ShardManifestEntry& entry,
    const std::string& manifest_dir) {
  if (!entry.has_delta()) return std::move(base);
  const std::string resolved =
      ResolveManifestEntryPath(entry.delta_path, manifest_dir);
  JOINMI_ASSIGN_OR_RETURN(
      DeltaSegmentContents contents,
      ReadDeltaSegmentPrefix(resolved, entry.delta_bytes,
                             entry.delta_checksum));
  if (contents.records.size() < entry.delta_records) {
    return Status::InvalidArgument(
        "delta segment '" + resolved + "' holds " +
        std::to_string(contents.records.size()) +
        " committed records but the manifest publishes " +
        std::to_string(entry.delta_records));
  }
  if (!(contents.config == base->config())) {
    return Status::InvalidArgument(
        "delta segment '" + resolved +
        "' was written under a different JoinMIConfig than its base shard");
  }
  // The manifest's global-index tail is authoritative; each published
  // record must sit exactly where the manifest says it does.
  const size_t base_count =
      static_cast<size_t>(entry.base_candidate_count());
  SketchIndex delta_index(base->config());
  std::vector<uint64_t> delta_globals;
  delta_globals.reserve(static_cast<size_t>(entry.delta_records));
  for (size_t i = 0; i < static_cast<size_t>(entry.delta_records); ++i) {
    const DeltaRecord& record = contents.records[i];
    const uint64_t expected = entry.global_indices[base_count + i];
    if (record.global_index != expected) {
      return Status::InvalidArgument(
          "delta segment '" + resolved + "' record " + std::to_string(i) +
          " carries global index " + std::to_string(record.global_index) +
          " but the manifest assigns " + std::to_string(expected));
    }
    JOINMI_ASSIGN_OR_RETURN(CandidateRecord candidate,
                            DecodeCandidateRecord(record.payload));
    JOINMI_RETURN_NOT_OK(
        delta_index.AddSketch(candidate.ref, std::move(candidate.sketch)));
    delta_globals.push_back(record.global_index);
  }
  delta_index.BuildPostings();
  JOINMI_ASSIGN_OR_RETURN(
      std::unique_ptr<LocalShardClient> delta_client,
      LocalShardClient::Create(std::move(delta_index),
                               std::move(delta_globals)));
  JOINMI_ASSIGN_OR_RETURN(
      std::unique_ptr<DeltaShardClient> overlay,
      DeltaShardClient::Create(std::move(base), std::move(delta_client)));
  return std::unique_ptr<ShardClient>(std::move(overlay));
}

}  // namespace ingest
}  // namespace joinmi
