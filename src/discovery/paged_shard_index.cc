#include "src/discovery/paged_shard_index.h"

#include <utility>

#include "src/discovery/topk_merge.h"
#include "src/ingest/delta_shard_client.h"

namespace joinmi {

Result<std::unique_ptr<PagedShardClient>> PagedShardClient::Open(
    const std::string& path, std::vector<uint64_t> global_indices,
    const Options& options) {
  JOINMI_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::PagedShardFile> file,
      storage::PagedShardFile::Open(path, options.pool_pages));
  JOINMI_RETURN_NOT_OK(
      CheckGlobalIndices(file->num_records(), global_indices));
  return std::unique_ptr<PagedShardClient>(
      new PagedShardClient(std::move(file), std::move(global_indices)));
}

Result<TopKSearchResult> PagedShardClient::Search(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads) const {
  if (k == 0) {
    return Status::InvalidArgument("shard search requires k >= 1");
  }
  // Same whole-shard fail-fast as SketchIndex::EvaluateAll: config drift
  // is one configuration error, not num_records() hard errors or answers
  // under the wrong estimator.
  JOINMI_RETURN_NOT_OK(CheckQueryConfig(query.config(), config()));

  // The outcome taxonomy matches the in-memory path, with one paged-only
  // case folded into "hard error": a record whose page fails checksum on
  // fault-in (or whose sketch breaks the merge contract). That keeps a
  // single corrupt page from failing the whole query — only the probes
  // that touch it. Each record is decoded, scored and dropped: nothing
  // outlives the probe but the buffer pool's pages.
  const size_t count = num_candidates();
  std::vector<internal::CandidateOutcome> outcomes(count);
  std::vector<ColumnPairRef> refs(count);
  const JoinMIConfig& cfg = config();
  auto score_strip = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto bytes = file_->ReadRecord(i);
      if (!bytes.ok()) continue;
      auto record = DecodeCandidateRecord(*bytes);
      if (!record.ok()) continue;
      auto score = ScoreCandidateSketch(
          query.train_sketch(), query.train_runs(), record->sketch,
          cfg.estimator, cfg.mi_options, cfg.min_join_size);
      if (!score.ok()) continue;
      outcomes[i].Record(*score);
      if (outcomes[i].estimate.has_value()) refs[i] = std::move(record->ref);
    }
  };
  internal::ForEachCandidateStrip(count, num_threads, score_strip);

  return internal::RankTopK(
      internal::TallyOutcomes(std::move(outcomes)), k,
      [this](size_t i) { return global_indices_[i]; },
      [&refs](size_t i) { return refs[i]; });
}

const PagedShardClient* PagedOf(const ShardClient& client) {
  if (const auto* paged = dynamic_cast<const PagedShardClient*>(&client)) {
    return paged;
  }
  if (const auto* overlay =
          dynamic_cast<const ingest::DeltaShardClient*>(&client)) {
    return dynamic_cast<const PagedShardClient*>(&overlay->base());
  }
  return nullptr;
}

}  // namespace joinmi
