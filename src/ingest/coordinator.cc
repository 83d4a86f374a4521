#include "src/ingest/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/ingest/compactor.h"
#include "src/ingest/generation.h"

namespace joinmi {
namespace ingest {

namespace {

// A shard's delta sidecar sits next to its base file and is named after
// it, so each base generation gets a fresh (empty) delta after
// compaction renames the base.
std::string DeltaName(const ShardManifestEntry& entry) {
  return entry.path + ".jmds";
}

}  // namespace

Result<std::unique_ptr<IngestCoordinator>> IngestCoordinator::Open(
    const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::InvalidArgument("ingest deployment '" + dir +
                                   "' is not a directory");
  }
  auto coordinator =
      std::unique_ptr<IngestCoordinator>(new IngestCoordinator());
  coordinator->dir_ = dir;
  JOINMI_ASSIGN_OR_RETURN(coordinator->manifest_path_,
                          ResolveManifestPath(dir));
  JOINMI_ASSIGN_OR_RETURN(coordinator->manifest_,
                          ReadManifestFile(coordinator->manifest_path_));
  const ShardManifest& manifest = coordinator->manifest_;
  coordinator->writers_.resize(manifest.shards.size());
  coordinator->next_global_ = manifest.total_candidates;

  // Recover existing delta segments: adopt committed-but-unpublished
  // records, and refuse to continue if a delta lost records the manifest
  // already published (that generation would be unservable).
  std::vector<uint64_t> pending;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardManifestEntry& entry = manifest.shards[s];
    const std::string delta_path =
        ResolveManifestEntryPath(DeltaName(entry), dir);
    if (!std::filesystem::exists(delta_path, ec)) {
      if (entry.has_delta()) {
        return Status::IOError("published delta segment '" + delta_path +
                               "' is missing");
      }
      continue;
    }
    JOINMI_ASSIGN_OR_RETURN(DeltaSegmentWriter * writer,
                            coordinator->Writer(s));
    const uint64_t committed = writer->committed_records();
    if (committed < entry.delta_records) {
      return Status::IOError(
          "delta segment '" + delta_path + "' holds " +
          std::to_string(committed) + " committed records but the "
          "manifest already published " +
          std::to_string(entry.delta_records) +
          " — published state is damaged");
    }
    const size_t base_count =
        static_cast<size_t>(entry.base_candidate_count());
    for (uint64_t i = 0; i < entry.delta_records; ++i) {
      const uint64_t expected =
          entry.global_indices[base_count + static_cast<size_t>(i)];
      if (writer->records()[static_cast<size_t>(i)].global_index !=
          expected) {
        return Status::IOError("delta segment '" + delta_path +
                               "' disagrees with the manifest about "
                               "published record " + std::to_string(i));
      }
    }
    for (uint64_t i = entry.delta_records; i < committed; ++i) {
      pending.push_back(
          writer->records()[static_cast<size_t>(i)].global_index);
    }
  }
  std::sort(pending.begin(), pending.end());
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i] != manifest.total_candidates + i) {
      return Status::IOError(
          "committed-but-unpublished delta records are not contiguous "
          "after the published total (" + std::to_string(pending[i]) +
          " vs expected " +
          std::to_string(manifest.total_candidates + i) + ")");
    }
  }
  coordinator->next_global_ = manifest.total_candidates + pending.size();
  return coordinator;
}

Result<DeltaSegmentWriter*> IngestCoordinator::Writer(size_t shard) {
  if (writers_[shard] == nullptr) {
    const ShardManifestEntry& entry = manifest_.shards[shard];
    JOINMI_ASSIGN_OR_RETURN(
        writers_[shard],
        DeltaSegmentWriter::Open(
            ResolveManifestEntryPath(DeltaName(entry), dir_),
            manifest_.config, shard));
  }
  return writers_[shard].get();
}

Status IngestCoordinator::Append(
    const std::vector<CandidateRecord>& candidates) {
  if (candidates.empty()) return Status::OK();
  // Validate every sketch against the deployment config before any byte
  // lands on disk — a mis-seeded sketch would otherwise poison the delta
  // and only fail at serving load.
  for (const CandidateRecord& candidate : candidates) {
    JOINMI_RETURN_NOT_OK(
        CheckIndexedSketch(manifest_.config, candidate.ref, candidate.sketch));
  }
  // Route in global order, flushing each run of consecutive same-shard
  // records as one commit batch. Commits therefore land in global order
  // too, keeping the committed set contiguous even mid-crash.
  const size_t num_shards = manifest_.shards.size();
  std::vector<DeltaRecord> run;
  size_t run_shard = num_shards;  // sentinel
  auto flush = [this, &run, &run_shard]() -> Status {
    if (run.empty()) return Status::OK();
    JOINMI_ASSIGN_OR_RETURN(DeltaSegmentWriter * writer, Writer(run_shard));
    JOINMI_RETURN_NOT_OK(writer->Append(run));
    next_global_ = run.back().global_index + 1;
    run.clear();
    return Status::OK();
  };
  uint64_t g = next_global_;
  for (const CandidateRecord& candidate : candidates) {
    const size_t shard =
        AssignShard(manifest_.policy, static_cast<size_t>(g), candidate.ref,
                    num_shards);
    if (shard != run_shard) {
      JOINMI_RETURN_NOT_OK(flush());
      run_shard = shard;
    }
    DeltaRecord record;
    record.global_index = g++;
    record.payload = EncodeCandidateRecord(candidate.ref, candidate.sketch);
    run.push_back(std::move(record));
  }
  return flush();
}

Result<ShardManifest> IngestCoordinator::ManifestCoveringCommitted() const {
  ShardManifest manifest = manifest_;
  for (size_t s = 0; s < writers_.size(); ++s) {
    const DeltaSegmentWriter* writer = writers_[s].get();
    if (writer == nullptr || writer->committed_records() == 0) continue;
    ShardManifestEntry& entry = manifest.shards[s];
    const uint64_t committed = writer->committed_records();
    for (uint64_t i = entry.delta_records; i < committed; ++i) {
      entry.global_indices.push_back(
          writer->records()[static_cast<size_t>(i)].global_index);
      ++entry.candidate_count;
      ++manifest.total_candidates;
    }
    entry.delta_path = DeltaName(manifest_.shards[s]);
    entry.delta_records = committed;
    entry.delta_bytes = writer->committed_bytes();
    entry.delta_checksum = writer->committed_checksum();
  }
  return manifest;
}

Status IngestCoordinator::WriteAndFlip(ShardManifest manifest) {
  JOINMI_RETURN_NOT_OK(manifest.Validate());
  const std::string name = GenerationManifestName(manifest.epoch);
  const std::string path = ResolveManifestEntryPath(name, dir_);
  JOINMI_RETURN_NOT_OK(WriteFileDurable(path, SerializeManifest(manifest)));
  JOINMI_RETURN_NOT_OK(PublishCurrent(dir_, name));
  manifest_ = std::move(manifest);
  manifest_path_ = path;
  return Status::OK();
}

Result<uint64_t> IngestCoordinator::Publish() {
  JOINMI_ASSIGN_OR_RETURN(ShardManifest manifest,
                          ManifestCoveringCommitted());
  manifest.epoch = manifest_.epoch + 1;
  JOINMI_RETURN_NOT_OK(WriteAndFlip(std::move(manifest)));
  return manifest_.epoch;
}

Result<uint64_t> IngestCoordinator::Compact() {
  JOINMI_ASSIGN_OR_RETURN(ShardManifest manifest,
                          ManifestCoveringCommitted());
  const uint64_t target_epoch = manifest_.epoch + 1;
  Compactor compactor(dir_, manifest);
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    if (!manifest.shards[s].has_delta()) continue;
    JOINMI_ASSIGN_OR_RETURN(ShardManifestEntry compacted,
                            compactor.CompactShard(s, target_epoch));
    manifest.shards[s] = std::move(compacted);
  }
  manifest.epoch = target_epoch;
  JOINMI_RETURN_NOT_OK(WriteAndFlip(std::move(manifest)));
  // Compacted shards have generation-stamped base names now, so their
  // (folded) delta files no longer belong to any entry; drop the writers
  // so future appends open fresh sidecars next to the new bases.
  for (auto& writer : writers_) writer.reset();
  return manifest_.epoch;
}

}  // namespace ingest
}  // namespace joinmi
