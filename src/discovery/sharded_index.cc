#include "src/discovery/sharded_index.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/common/hashing.h"
#include "src/common/thread_pool.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/topk_merge.h"
#include "src/ingest/delta_shard_client.h"
#include "src/sketch/serialize.h"
#include "src/storage/paged_shard_file.h"

namespace joinmi {

namespace {

// Seed for the hash-by-dataset assignment; distinct from any sketch hash
// seed so shard placement never correlates with sketch sampling.
constexpr uint32_t kShardAssignSeed = 0x5A4DC0DEu;

std::string ShardFileName(size_t shard, ShardFileFormat format) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%05zu", shard);
  return name + std::string(ShardFileExtension(format));
}

// A whole-file shard's bytes, checked against the manifest before anything
// parses them: a corrupt or swapped shard file must fail here with
// provenance, not as a blob error (or not at all, if the bit flip lands in
// sketch payload bytes).
Result<std::string> ReadWholeShardFile(const ShardManifestEntry& entry,
                                       const std::string& path) {
  JOINMI_ASSIGN_OR_RETURN(std::string bytes, wire::ReadFileBytes(path));
  const uint64_t checksum = wire::Checksum64(bytes);
  if (checksum != entry.checksum) {
    return Status::InvalidArgument(
        "shard file '" + path + "' checksum " + std::to_string(checksum) +
        " disagrees with the manifest (" + std::to_string(entry.checksum) +
        ") — the file is corrupt or does not belong to this manifest");
  }
  return bytes;
}

// The base file holds only the pre-delta prefix of the shard's candidates;
// appended ones live in the JMDS sidecar.
Status CheckBaseCount(const ShardManifestEntry& entry, const std::string& path,
                      size_t count) {
  if (count == entry.base_candidate_count()) return Status::OK();
  return Status::InvalidArgument(
      "shard file '" + path + "' holds " + std::to_string(count) +
      " candidates but the manifest records " +
      std::to_string(entry.base_candidate_count()) + " (plus " +
      std::to_string(entry.delta_records) + " delta records)");
}

}  // namespace

// ------------------------------------------------------- LocalShardClient

Status CheckGlobalIndices(size_t count,
                          const std::vector<uint64_t>& global_indices) {
  if (global_indices.size() != count) {
    return Status::InvalidArgument(
        "shard holds " + std::to_string(count) +
        " candidates but the global index mapping lists " +
        std::to_string(global_indices.size()));
  }
  for (size_t i = 1; i < global_indices.size(); ++i) {
    if (global_indices[i - 1] >= global_indices[i]) {
      return Status::InvalidArgument(
          "shard global indices are not strictly increasing");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<LocalShardClient>> LocalShardClient::Create(
    SketchIndex index, std::vector<uint64_t> global_indices) {
  JOINMI_RETURN_NOT_OK(CheckGlobalIndices(index.size(), global_indices));
  return std::unique_ptr<LocalShardClient>(new LocalShardClient(
      std::move(index), std::move(global_indices)));
}

Result<TopKSearchResult> LocalShardClient::Search(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads) const {
  if (k == 0) {
    return Status::InvalidArgument("shard search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(IndexEvaluation evaluation,
                          index_.EvaluateAll(query, num_threads));
  // Within one shard global order equals local order, but selecting on the
  // global key keeps the shard's top-k consistent with the cross-shard
  // merge by construction.
  return internal::RankTopK(
      evaluation, k, [this](size_t i) { return global_indices_[i]; },
      [this](size_t i) { return index_.candidates()[i].ref; });
}

// ----------------------------------------------------- ShardedSketchIndex

Result<ShardedSketchIndex> ShardedSketchIndex::Create(
    ShardManifest manifest,
    std::vector<std::unique_ptr<ShardClient>> clients) {
  JOINMI_RETURN_NOT_OK(manifest.Validate());
  // Validate() already rejects zero-shard manifests; this re-check keeps
  // config()'s clients_[0] dereference safe even if Validate ever relaxes.
  if (clients.empty()) {
    return Status::InvalidArgument(
        "a sharded index needs at least one shard client");
  }
  if (clients.size() != manifest.shards.size()) {
    return Status::InvalidArgument(
        "manifest names " + std::to_string(manifest.shards.size()) +
        " shards but " + std::to_string(clients.size()) +
        " clients were provided");
  }
  for (size_t s = 0; s < clients.size(); ++s) {
    if (clients[s] == nullptr) {
      return Status::InvalidArgument("shard client " + std::to_string(s) +
                                     " is null");
    }
    if (clients[s]->num_candidates() != manifest.shards[s].candidate_count) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " ('" + manifest.shards[s].path +
          "') holds " + std::to_string(clients[s]->num_candidates()) +
          " candidates but the manifest records " +
          std::to_string(manifest.shards[s].candidate_count));
    }
    if (clients[s]->config() != clients[0]->config()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " was built under a different JoinMIConfig than shard 0 — "
          "sketches across shards would not coordinate");
    }
  }
  return ShardedSketchIndex(std::move(manifest), std::move(clients));
}

Result<ShardedSketchIndex> ShardedSketchIndex::Load(
    const std::string& manifest_path, const ShardClientFactory& factory) {
  JOINMI_ASSIGN_OR_RETURN(ShardManifest manifest,
                          ReadManifestFile(manifest_path));
  const std::string base =
      std::filesystem::path(manifest_path).parent_path().string();
  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.reserve(manifest.shards.size());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    JOINMI_ASSIGN_OR_RETURN(std::unique_ptr<ShardClient> client,
                            factory(manifest, s, base));
    clients.push_back(std::move(client));
  }
  return Create(std::move(manifest), std::move(clients));
}

Result<ShardedSketchIndex> ShardedSketchIndex::Load(
    const std::string& manifest_path) {
  return Load(manifest_path, LocalFileFactory());
}

ShardClientFactory ShardedSketchIndex::LocalFileFactory(
    const LocalShardLoadOptions& options) {
  return [options](const ShardManifest& manifest, size_t shard,
                   const std::string& manifest_dir)
             -> Result<std::unique_ptr<ShardClient>> {
    const ShardManifestEntry& entry = manifest.shards[shard];
    const std::string resolved =
        ResolveManifestEntryPath(entry.path, manifest_dir);
    // Delta candidates are layered on by LoadDeltaOverlay below.
    std::vector<uint64_t> base_indices(
        entry.global_indices.begin(),
        entry.global_indices.begin() + entry.base_candidate_count());
    std::unique_ptr<ShardClient> base;
    if (entry.format == ShardFileFormat::kPaged) {
      // Header + directory only; no whole-file checksum (see the doc).
      JOINMI_ASSIGN_OR_RETURN(
          std::unique_ptr<PagedShardClient> client,
          PagedShardClient::Open(resolved, base_indices, options));
      base = std::move(client);
    } else {
      JOINMI_ASSIGN_OR_RETURN(std::string bytes,
                              ReadWholeShardFile(entry, resolved));
      JOINMI_ASSIGN_OR_RETURN(SketchIndex index, DeserializeIndex(bytes));
      JOINMI_RETURN_NOT_OK(CheckBaseCount(entry, resolved, index.size()));
      JOINMI_ASSIGN_OR_RETURN(
          std::unique_ptr<LocalShardClient> client,
          LocalShardClient::Create(std::move(index),
                                   std::move(base_indices)));
      base = std::move(client);
    }
    return ingest::LoadDeltaOverlay(std::move(base), entry, manifest_dir);
  };
}

// ------------------------------------------------------------ Shard files

Result<std::string> EncodeShardFile(const JoinMIConfig& config,
                                    const std::vector<std::string>& records,
                                    const ShardBuildOptions& layout) {
  if (layout.format == ShardFileFormat::kPaged) {
    return storage::BuildPagedShardBytes(config, records, layout.page_size);
  }
  return EncodeIndexRecords(config, records);
}

Result<ShardRecords> ReadShardRecords(const ShardManifestEntry& entry,
                                      const std::string& manifest_dir) {
  const std::string resolved =
      ResolveManifestEntryPath(entry.path, manifest_dir);
  ShardRecords out;
  out.layout.format = entry.format;
  if (entry.format == ShardFileFormat::kPaged) {
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::PagedShardFile> file,
        storage::PagedShardFile::Open(resolved, /*pool_pages=*/4));
    out.layout.page_size = file->page_size();
    out.records.reserve(file->num_records());
    for (size_t i = 0; i < file->num_records(); ++i) {
      JOINMI_ASSIGN_OR_RETURN(std::string record, file->ReadRecord(i));
      out.records.push_back(std::move(record));
    }
  } else {
    JOINMI_ASSIGN_OR_RETURN(std::string bytes,
                            ReadWholeShardFile(entry, resolved));
    JOINMI_ASSIGN_OR_RETURN(IndexRecords index, DecodeIndexRecords(bytes));
    out.records = std::move(index.records);
  }
  JOINMI_RETURN_NOT_OK(CheckBaseCount(entry, resolved, out.records.size()));
  return out;
}

Status VerifyShardFile(const std::string& path, ShardFileFormat format) {
  if (format == ShardFileFormat::kPaged) {
    uint64_t bad_page = 0;
    const Status status = storage::VerifyPagedShardFile(path, &bad_page);
    if (!status.ok()) {
      return Status(status.code(), "page " + std::to_string(bad_page) +
                                       ": " + status.message());
    }
    // Sound pages can still hold a record no index would accept; decode
    // and check each one as a "JMIX" verify does.
    JOINMI_ASSIGN_OR_RETURN(std::unique_ptr<storage::PagedShardFile> file,
                            storage::PagedShardFile::Open(path,
                                                          /*pool_pages=*/4));
    for (size_t i = 0; i < file->num_records(); ++i) {
      JOINMI_ASSIGN_OR_RETURN(std::string record, file->ReadRecord(i));
      JOINMI_RETURN_NOT_OK(VerifyCandidateRecord(file->config(), record, i,
                                                 file->num_records()));
    }
    return Status::OK();
  }
  JOINMI_ASSIGN_OR_RETURN(std::string bytes, wire::ReadFileBytes(path));
  return VerifyIndexRecords(bytes);
}

Result<TopKSearchResult> ShardedSketchIndex::SearchQuery(
    const JoinMIQuery& query, size_t k, size_t num_threads,
    ShardQueryMode mode) const {
  if (k == 0) {
    return Status::InvalidArgument("sharded search requires k >= 1");
  }
  const size_t num_shards = clients_.size();
  // A failed shard's slot stays empty, so the merge skips it.
  std::vector<TopKSearchResult> per_shard(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  // Every shard gets the whole thread budget: its strips fan out on the
  // same shared pool, so workers idle after a small shard help a large one.
  ParallelFor(num_shards, num_threads, [&](size_t s) {
    auto result = clients_[s]->Search(query, k, num_threads);
    if (result.ok()) {
      per_shard[s] = std::move(*result);
    } else {
      statuses[s] = result.status();
    }
  });
  std::vector<ShardFailure> failures;
  for (size_t s = 0; s < num_shards; ++s) {
    if (statuses[s].ok()) continue;
    // First failure in shard order wins, so errors are deterministic too.
    if (mode == ShardQueryMode::kStrict) {
      return Status(statuses[s].code(), "shard " + std::to_string(s) +
                                            " failed: " +
                                            statuses[s].message());
    }
    failures.push_back(ShardFailure{s, statuses[s]});
  }
  if (failures.size() == num_shards) {
    const Status& first = failures.front().status;
    return Status(first.code(),
                  "every shard failed; first failure (shard " +
                      std::to_string(failures.front().shard) +
                      "): " + first.message());
  }
  TopKSearchResult merged = internal::MergeRanked(std::move(per_shard), k);
  merged.shard_failures = std::move(failures);
  return merged;
}

// ------------------------------------------------------------ Partitioner

size_t AssignShard(ShardPartitionPolicy policy, size_t index,
                   const ColumnPairRef& ref, size_t num_shards) {
  switch (policy) {
    case ShardPartitionPolicy::kRoundRobin:
      return index % num_shards;
    case ShardPartitionPolicy::kHashByDataset:
      return MurmurHash3_32(ref.table_name, kShardAssignSeed) % num_shards;
  }
  return 0;
}

Result<std::string> BuildShards(const SketchIndex& index, size_t num_shards,
                                ShardPartitionPolicy policy,
                                const std::string& output_dir,
                                const ShardBuildOptions& options) {
  if (num_shards == 0) {
    return Status::InvalidArgument("cannot partition into 0 shards");
  }
  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);
  if (ec) {
    return Status::IOError("cannot create shard output directory '" +
                           output_dir + "': " + ec.message());
  }
  ShardManifest manifest;
  manifest.policy = policy;
  // The embedded config is what lets a router without the shard files —
  // the remote-serving deployment — sketch queries and check handshake
  // agreement.
  manifest.config = index.config();
  manifest.total_candidates = index.size();
  manifest.shards.resize(num_shards);
  // The index checked every candidate when it was added, so its records
  // go to their shards as they are.
  std::vector<std::vector<std::string>> records(num_shards);
  for (size_t i = 0; i < index.candidates().size(); ++i) {
    const IndexedCandidate& candidate = index.candidates()[i];
    const size_t s = AssignShard(policy, i, candidate.ref, num_shards);
    records[s].push_back(
        EncodeCandidateRecord(candidate.ref, candidate.sketch()));
    manifest.shards[s].global_indices.push_back(i);
  }
  const std::filesystem::path dir(output_dir);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardManifestEntry& entry = manifest.shards[s];
    entry.path = ShardFileName(s, options.format);
    entry.candidate_count = records[s].size();
    entry.format = options.format;
    JOINMI_ASSIGN_OR_RETURN(
        std::string bytes,
        EncodeShardFile(index.config(), records[s], options));
    records[s] = {};
    // The checksum covers the full file bytes for both formats; paged
    // loads skip re-reading it (the JMPS internal checksums take over)
    // but verify tooling and whole-file readers still have it.
    entry.checksum = wire::Checksum64(bytes);
    JOINMI_RETURN_NOT_OK(
        wire::WriteFileBytes(bytes, (dir / entry.path).string()));
  }
  const std::string manifest_path = (dir / "manifest.jmim").string();
  JOINMI_RETURN_NOT_OK(WriteManifestFile(manifest, manifest_path));
  return manifest_path;
}

}  // namespace joinmi
