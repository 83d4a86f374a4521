#include "src/discovery/sketch_index.h"

#include <cstring>
#include <utility>

#include "src/discovery/topk_merge.h"
#include "src/sketch/serialize.h"

namespace joinmi {

Status SketchIndex::AddCandidate(const Table& table,
                                 const ColumnPairRef& ref) {
  auto builder =
      MakeSketchBuilder(config_.sketch_method, config_.sketch_options());
  JOINMI_ASSIGN_OR_RETURN(auto key_col, table.GetColumn(ref.key_column));
  JOINMI_ASSIGN_OR_RETURN(auto value_col, table.GetColumn(ref.value_column));
  JOINMI_ASSIGN_OR_RETURN(
      Sketch sketch,
      builder->SketchCandidate(*key_col, *value_col, config_.aggregation));
  return AddSketch(ref, std::move(sketch));
}

Status SketchIndex::AddSketch(const ColumnPairRef& ref, Sketch sketch) {
  if (sketch.hash_seed != config_.hash_seed) {
    return Status::InvalidArgument(
        "sketch for " + ref.ToString() + " was built with hash seed " +
        std::to_string(sketch.hash_seed) + ", index config uses " +
        std::to_string(config_.hash_seed));
  }
  const size_t offset = key_hashes_.size();
  const Status keys = AppendCandidateKeys(sketch, &key_hashes_);
  if (!keys.ok()) {
    key_hashes_.resize(offset);
    return keys;
  }
  key_offsets_.push_back(key_hashes_.size());
  value_types_.push_back(AppendValueWords(sketch, &value_words_));
  candidates_.push_back(IndexedCandidate{ref, std::move(sketch)});
  return Status::OK();
}

void SketchIndex::Reserve(size_t candidates) {
  candidates_.reserve(candidates);
  key_offsets_.reserve(candidates + 1);
  value_types_.reserve(candidates);
}

Result<size_t> SketchIndex::IndexRepository(
    const TableRepository& repository) {
  size_t indexed = 0;
  for (const ColumnPairRef& ref : repository.ExtractColumnPairs()) {
    JOINMI_ASSIGN_OR_RETURN(auto table, repository.GetTable(ref.table_name));
    // Candidates that fail to sketch (all-null columns, aggregator/type
    // mismatches) are skipped rather than failing the whole build.
    if (AddCandidate(*table, ref).ok()) ++indexed;
  }
  return indexed;
}

Result<IndexEvaluation> SketchIndex::EvaluateAll(const JoinMIQuery& query,
                                                 size_t num_threads) const {
  // The per-join seed check would catch this candidate by candidate, but a
  // whole-index mismatch is a configuration error worth one clear failure
  // instead of size() identical ones counted as errors.
  if (query.train_sketch().hash_seed != config_.hash_seed) {
    return Status::InvalidArgument(
        "query sketch hash seed " +
        std::to_string(query.train_sketch().hash_seed) +
        " does not match index hash seed " +
        std::to_string(config_.hash_seed));
  }
  std::vector<internal::CandidateOutcome> outcomes(candidates_.size());
  internal::ForEachCandidateStrip(
      candidates_.size(), num_threads,
      [this, &query, &outcomes](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          CandidateColumns columns;
          columns.keys = key_hashes_.data() + key_offsets_[c];
          columns.value_words = value_words_.data() + key_offsets_[c];
          columns.size = key_offsets_[c + 1] - key_offsets_[c];
          columns.types = value_types_[c];
          outcomes[c].Record(ScoreMergeJoin(
              query.train_sketch(), query.train_runs(),
              candidates_[c].sketch(), columns, config_.estimator,
              config_.mi_options, config_.min_join_size));
        }
      });
  IndexEvaluation evaluation;
  evaluation.estimates.reserve(outcomes.size());
  for (internal::CandidateOutcome& outcome : outcomes) {
    if (outcome.estimate.has_value()) {
      ++evaluation.num_evaluated;
    } else if (outcome.skipped) {
      ++evaluation.num_skipped;
    } else {
      ++evaluation.num_errors;
    }
    evaluation.estimates.push_back(std::move(outcome.estimate));
  }
  return evaluation;
}

// ------------------------------------------------------------ Persistence

namespace {

constexpr char kIndexMagic[4] = {'J', 'M', 'I', 'X'};
constexpr uint32_t kIndexVersion = 1;

// Bytes before the first candidate record: magic + version + the fixed
// config layout + the u64 candidate count. Anything shorter cannot even
// be an empty index, and saying so (with both sizes) beats the generic
// "truncated buffer" a field-by-field parse would surface.
constexpr size_t kIndexHeaderSize = 4 + 4 + kJoinMIConfigWireSize + 8;

}  // namespace

std::string SerializeIndex(const SketchIndex& index) {
  std::string out;
  wire::AppendRaw(&out, kIndexMagic, sizeof(kIndexMagic));
  wire::AppendPod<uint32_t>(&out, kIndexVersion);
  // The config layout is the shared one from core/config.cc; the index
  // format predates that sharing, so the bytes are unchanged.
  AppendJoinMIConfig(&out, index.config());
  wire::AppendPod<uint64_t>(&out, index.size());
  for (const IndexedCandidate& candidate : index.candidates()) {
    wire::AppendLengthPrefixed(&out, candidate.ref.table_name);
    wire::AppendLengthPrefixed(&out, candidate.ref.key_column);
    wire::AppendLengthPrefixed(&out, candidate.ref.value_column);
    wire::AppendLengthPrefixed(&out, SerializeSketch(candidate.sketch()));
  }
  return out;
}

Result<SketchIndex> DeserializeIndex(const std::string& data) {
  if (data.size() < kIndexHeaderSize) {
    return Status::IOError(
        data.empty()
            ? "index buffer is empty; a valid index is at least " +
                  std::to_string(kIndexHeaderSize) + " bytes (header alone)"
            : "index buffer is " + std::to_string(data.size()) +
                  " bytes but the index header alone is " +
                  std::to_string(kIndexHeaderSize) +
                  " — file truncated or not an index");
  }
  wire::Reader reader(data);
  char magic[4];
  JOINMI_RETURN_NOT_OK(reader.Read(&magic));
  if (std::memcmp(magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return Status::IOError("bad index magic");
  }
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&version));
  if (version != kIndexVersion) {
    return Status::IOError("unsupported index version " +
                           std::to_string(version));
  }
  JOINMI_ASSIGN_OR_RETURN(JoinMIConfig config, ReadJoinMIConfig(&reader));
  uint64_t count = 0;
  JOINMI_RETURN_NOT_OK(reader.Read(&count));
  // Each candidate needs at least 4 length prefixes (16 bytes) on the
  // wire; divide rather than multiply so a crafted count cannot overflow
  // past the check — nor in the message, which gives the per-candidate
  // minimum instead of a product that would wrap for such counts.
  if (count > reader.remaining() / 16) {
    return Status::IOError(
        "index header promises " + std::to_string(count) +
        " candidates but only " + std::to_string(reader.remaining()) +
        " bytes follow the header (each candidate needs at least 16) — "
        "file truncated after the header");
  }
  SketchIndex index(std::move(config));
  // The check above bounds count by the bytes that follow, as
  // DeserializeSketch bounds its entry count before reserving.
  index.Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    // Attribute any parse failure to the candidate it happened in — "the
    // file ended inside candidate 37 of 100" localizes a truncation where
    // a bare "truncated buffer" cannot.
    const auto where = [&](const Status& st) {
      return Status(st.code(), "candidate " + std::to_string(i) + " of " +
                                   std::to_string(count) + ": " +
                                   st.message());
    };
    ColumnPairRef ref;
    Status st = reader.ReadLengthPrefixed(&ref.table_name);
    if (st.ok()) st = reader.ReadLengthPrefixed(&ref.key_column);
    if (st.ok()) st = reader.ReadLengthPrefixed(&ref.value_column);
    std::string blob;
    if (st.ok()) st = reader.ReadLengthPrefixed(&blob);
    if (!st.ok()) return where(st);
    auto sketch = DeserializeSketch(blob);
    if (!sketch.ok()) return where(sketch.status());
    // AddSketch re-validates seed agreement and candidate-side invariants,
    // so a tampered or mismatched payload cannot produce a poisoned index.
    st = index.AddSketch(std::move(ref), std::move(*sketch));
    if (!st.ok()) return where(st);
  }
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after index payload");
  }
  return index;
}

Status WriteIndexFile(const SketchIndex& index, const std::string& path) {
  return wire::WriteFileBytes(SerializeIndex(index), path);
}

Result<SketchIndex> ReadIndexFile(const std::string& path) {
  JOINMI_ASSIGN_OR_RETURN(std::string data, wire::ReadFileBytes(path));
  auto index = DeserializeIndex(data);
  if (!index.ok()) {
    // Provenance for operators: which file, and how big it actually was —
    // a 0-byte file from a failed copy and a half-written 40 MB file get
    // tellingly different messages.
    const Status& st = index.status();
    return Status(st.code(), "index file '" + path + "' (" +
                                 std::to_string(data.size()) +
                                 " bytes): " + st.message());
  }
  return index;
}

}  // namespace joinmi
