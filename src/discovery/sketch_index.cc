#include "src/discovery/sketch_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/discovery/topk_merge.h"
#include "src/mi/estimator_internal.h"
#include "src/sketch/serialize.h"

namespace joinmi {

namespace {

constexpr uint32_t kNoPosting = std::numeric_limits<uint32_t>::max();

// Grows `v`'s capacity to at least `n`, geometrically.
template <typename T>
void ReserveAtLeast(std::vector<T>& v, size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, 2 * v.capacity()));
}

// EvaluateAll's per-query scratch.
struct PostingScratch {
  // Per train run: its key's index in the postings, or kNoPosting.
  std::vector<uint32_t> run_postings;
  // Per candidate: its join size; its first match, or kNoPosting below
  // the floor; and its match count, then one past its last match.
  std::vector<uint32_t> join_sizes, match_begins, match_ends;
  // The candidates at or above the floor, ascending.
  std::vector<uint32_t> scored;
  // Each scored candidate's matches, in ascending key order.
  std::vector<RunMatch> matches;
};

// Column pairs IndexRepository sketches per pool thread before appending
// them: bounds the sketches alive at once, so a large repository holds a
// wave's worth of worker-built sketches, not all of them.
constexpr size_t kPairsPerThreadPerWave = 16;

// Sketches one candidate column pair under `config`: the one sketching
// path AddCandidate and IndexRepository share. A value column without one
// non-null value would sketch to an empty candidate that every query
// skips, so it is refused like any other unsketchable pair.
Result<Sketch> SketchColumnPair(const JoinMIConfig& config, const Table& table,
                                const ColumnPairRef& ref) {
  JOINMI_ASSIGN_OR_RETURN(auto key_col, table.GetColumn(ref.key_column));
  JOINMI_ASSIGN_OR_RETURN(auto value_col, table.GetColumn(ref.value_column));
  if (value_col->null_count() == value_col->size()) {
    return Status::InvalidArgument("value column of " + ref.ToString() +
                                   " holds no non-null value");
  }
  return MakeSketchBuilder(config.sketch_method, config.sketch_options())
      ->SketchCandidate(*key_col, *value_col, config.aggregation);
}

}  // namespace

Status SketchIndex::AddCandidate(const Table& table,
                                 const ColumnPairRef& ref) {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch, SketchColumnPair(config_, table, ref));
  return AddSketch(ref, std::move(sketch));
}

Status CheckIndexedSketch(const JoinMIConfig& config,
                          const ColumnPairRef& ref, const Sketch& sketch) {
  if (sketch.hash_seed != config.hash_seed) {
    return Status::InvalidArgument(
        "sketch for " + ref.ToString() + " was built with hash seed " +
        std::to_string(sketch.hash_seed) + ", index config uses " +
        std::to_string(config.hash_seed));
  }
  return CheckCandidateKeys(sketch);
}

Status SketchIndex::Append(const ColumnPairRef& ref, Sketch sketch) {
  JOINMI_RETURN_NOT_OK(CheckIndexedSketch(config_, ref, sketch));
  // The postings address candidates and entries in 32 bits.
  constexpr size_t kMaxPostings = std::numeric_limits<uint32_t>::max();
  if (candidates_.size() >= kMaxPostings ||
      sketch.size() > kMaxPostings - value_words_.size()) {
    return Status::InvalidArgument(
        "adding " + ref.ToString() +
        " would exceed the index's 2^32 - 1 candidates or entries");
  }
  value_types_.push_back(AppendValueWords(sketch, &value_words_));
  entry_offsets_.push_back(value_words_.size());
  candidates_.push_back(IndexedCandidate{ref, std::move(sketch)});
  postings_state_.current.store(false);
  return Status::OK();
}

Status SketchIndex::AddSketch(const ColumnPairRef& ref, Sketch sketch) {
  JOINMI_RETURN_NOT_OK(Append(ref, std::move(sketch)));
  const size_t entries = value_words_.size();
  ReserveAtLeast(posting_keys_, entries);
  ReserveAtLeast(posting_begin_, entries + 1);
  ReserveAtLeast(postings_, entries);
  ReserveAtLeast(posting_buckets_, (size_t{1} << BucketBits(entries)) + 1);
  return Status::OK();
}

void SketchIndex::Reserve(size_t candidates) {
  candidates_.reserve(candidates);
  entry_offsets_.reserve(candidates + 1);
  value_types_.reserve(candidates);
}

Result<size_t> SketchIndex::IndexRepository(
    const TableRepository& repository) {
  const std::vector<ColumnPairRef> refs = repository.ExtractColumnPairs();
  std::vector<std::shared_ptr<Table>> tables;
  tables.reserve(refs.size());
  for (const ColumnPairRef& ref : refs) {
    JOINMI_ASSIGN_OR_RETURN(auto table, repository.GetTable(ref.table_name));
    tables.push_back(std::move(table));
  }
  const size_t wave = kPairsPerThreadPerWave * DefaultThreadCount();
  std::vector<std::optional<Sketch>> sketches(std::min(wave, refs.size()));
  size_t indexed = 0;
  for (size_t begin = 0; begin < refs.size(); begin += wave) {
    const size_t count = std::min(wave, refs.size() - begin);
    // Candidates that fail to sketch (aggregator/type mismatches, such as
    // avg over a string column) are skipped rather than failing the whole
    // build.
    ParallelFor(count, 0, [&](size_t i) {
      Result<Sketch> sketch =
          SketchColumnPair(config_, *tables[begin + i], refs[begin + i]);
      if (sketch.ok()) sketches[i] = std::move(*sketch);
    });
    // Appended in enumeration order, so the index does not depend on which
    // thread sketched what.
    for (size_t i = 0; i < count; ++i) {
      if (!sketches[i].has_value()) continue;
      Sketch sketch = std::move(*sketches[i]);
      sketches[i].reset();
      // The index keeps a copy of the entries allocated on this thread: a
      // worker's array lives in that worker's malloc arena (glibc keeps one
      // per thread), which cannot reuse the memory an index freed on this
      // thread before, so rebuilding an index would grow peak RSS by its
      // whole entry footprint.
      sketch.entries = std::vector<SketchEntry>(sketch.entries);
      if (AddSketch(refs[begin + i], std::move(sketch)).ok()) ++indexed;
    }
  }
  return indexed;
}

void SketchIndex::BuildPostings() const {
  if (postings_state_.current.load()) return;
  std::lock_guard<std::mutex> lock(postings_state_.build);
  if (postings_state_.current.load()) return;
  RebuildPostings();
  postings_state_.current.store(true);
}

void SketchIndex::RebuildPostings() const {
  // Counting sort of every entry by its key's top bits: a bucket then holds
  // its entries in candidate order, and Mix64 keys spread so evenly that
  // sorting each bucket by key is a few compares.
  const size_t total = value_words_.size();
  const unsigned bits = BucketBits(total);
  const unsigned shift = 64 - bits;
  std::vector<uint32_t> bucket_end((size_t{1} << bits) + 1, 0);
  for (const IndexedCandidate& candidate : candidates_) {
    for (const SketchEntry& entry : candidate.sketch().entries) {
      ++bucket_end[(entry.key_hash >> shift) + 1];
    }
  }
  for (size_t b = 1; b < bucket_end.size(); ++b) {
    bucket_end[b] += bucket_end[b - 1];
  }
  struct KeyedPosting {
    uint64_t key;
    Posting posting;
  };
  std::unique_ptr<KeyedPosting[]> sorted(new KeyedPosting[total]);
  for (uint32_t c = 0; c < candidates_.size(); ++c) {
    const std::vector<SketchEntry>& entries = candidates_[c].sketch().entries;
    for (uint32_t j = 0; j < entries.size(); ++j) {
      const uint64_t key = entries[j].key_hash;
      sorted[bucket_end[key >> shift]++] = KeyedPosting{key, Posting{c, j}};
    }
  }
  // bucket_end[b] now ends bucket b. A candidate holds a key at most once,
  // so (key, candidate) orders a bucket totally, keeping each key's
  // postings in candidate order. A key's postings share its bucket.
  size_t distinct = 0;
  uint32_t begin = 0;
  for (size_t b = 0; b + 1 < bucket_end.size(); ++b) {
    const uint32_t end = bucket_end[b];
    if (end - begin > 1) {
      std::sort(sorted.get() + begin, sorted.get() + end,
                [](const KeyedPosting& x, const KeyedPosting& y) {
                  return x.key != y.key ? x.key < y.key
                                        : x.posting.candidate <
                                              y.posting.candidate;
                });
    }
    for (uint32_t i = begin; i < end; ++i) {
      distinct += i == begin || sorted[i].key != sorted[i - 1].key;
    }
    begin = end;
  }

  // The distinct keys and each one's postings, within the capacity
  // AddSketch reserved, or allocated to their exact size by a loader's
  // first build.
  posting_keys_.clear();
  posting_keys_.reserve(distinct);
  posting_begin_.clear();
  posting_begin_.reserve(distinct + 1);
  postings_.clear();
  postings_.reserve(total);
  for (uint32_t i = 0; i < total; ++i) {
    if (i == 0 || sorted[i].key != sorted[i - 1].key) {
      posting_keys_.push_back(sorted[i].key);
      posting_begin_.push_back(i);
    }
    postings_.push_back(sorted[i].posting);
  }
  posting_begin_.push_back(static_cast<uint32_t>(total));
  posting_buckets_.clear();
  posting_shift_ = BuildBucketDirectory(
      posting_keys_.data(), distinct, BucketBits(distinct), &posting_buckets_);
}

Result<IndexEvaluation> SketchIndex::EvaluateAll(const JoinMIQuery& query,
                                                 size_t num_threads) const {
  // A drifted query is one configuration error, worth one clear failure
  // instead of size() identical errors or estimates under the wrong
  // estimator.
  JOINMI_RETURN_NOT_OK(CheckQueryConfig(query.config(), config_));
  BuildPostings();
  const TrainKeyRuns& runs = query.train_runs();
  const size_t count = candidates_.size();
  const size_t num_runs = runs.keys.size();
  std::vector<internal::CandidateOutcome> outcomes(count);
  // No candidate matches more keys than the train has runs: the bound
  // ScoreMergeJoin keeps its per-candidate matches under.
  internal::WithScratch<PostingScratch>(num_runs, [&](PostingScratch& s) {
    // Pass 1: each train run's postings add its length to the join size of
    // every candidate holding its key.
    s.run_postings.resize(num_runs);
    s.join_sizes.assign(count, 0);
    s.match_ends.assign(count, 0);
    const bool any_keys = !posting_keys_.empty();
    for (size_t r = 0; r < num_runs; ++r) {
      const uint64_t key = runs.keys[r];
      uint32_t found = kNoPosting;
      if (any_keys) {
        const uint64_t b = key >> posting_shift_;
        for (uint32_t p = posting_buckets_[b]; p < posting_buckets_[b + 1];
             ++p) {
          if (posting_keys_[p] < key) continue;
          if (posting_keys_[p] == key) found = p;
          break;
        }
      }
      s.run_postings[r] = found;
      if (found == kNoPosting) continue;
      const uint32_t length = runs.spans[r].second - runs.spans[r].first;
      for (uint32_t q = posting_begin_[found]; q < posting_begin_[found + 1];
           ++q) {
        const uint32_t c = postings_[q].candidate;
        s.join_sizes[c] += length;
        ++s.match_ends[c];
      }
    }

    // Candidates below the floor are skipped untouched; the rest get a
    // slice of the match buffer.
    s.match_begins.resize(count);
    s.scored.clear();
    uint32_t total = 0;
    for (uint32_t c = 0; c < count; ++c) {
      if (s.join_sizes[c] < config_.min_join_size) {
        outcomes[c].skipped = true;
        s.match_begins[c] = kNoPosting;
        continue;
      }
      s.scored.push_back(c);
      s.match_begins[c] = total;
      total += s.match_ends[c];
      s.match_ends[c] = s.match_begins[c];
    }

    // Pass 2: the scored candidates' matches, each candidate's in
    // ascending key order — the order its probe would emit them in.
    if (s.matches.size() < total) s.matches.resize(total);
    for (size_t r = 0; r < num_runs && total > 0; ++r) {
      const uint32_t p = s.run_postings[r];
      if (p == kNoPosting) continue;
      const std::pair<uint32_t, uint32_t> span = runs.spans[r];
      for (uint32_t q = posting_begin_[p]; q < posting_begin_[p + 1]; ++q) {
        const Posting posting = postings_[q];
        if (s.match_begins[posting.candidate] == kNoPosting) continue;
        s.matches[s.match_ends[posting.candidate]++] =
            RunMatch{span.first, span.second, posting.entry};
      }
    }

    internal::ForEachCandidateStrip(
        s.scored.size(), num_threads, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const uint32_t c = s.scored[i];
            CandidateColumns columns;
            columns.value_words = value_words_.data() + entry_offsets_[c];
            columns.types = value_types_[c];
            const uint32_t first = s.match_begins[c];
            outcomes[c].Record(GatherAndScore(
                query.train_sketch(), runs, candidates_[c].sketch(), columns,
                s.matches.data() + first, s.match_ends[c] - first,
                s.join_sizes[c], config_.estimator, config_.mi_options));
          }
        });
  });
  return internal::TallyOutcomes(std::move(outcomes));
}

Result<TopKSearchResult> SketchIndex::SearchQuery(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads,
                                                  ShardQueryMode mode) const {
  (void)mode;  // no shard to lose
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(IndexEvaluation evaluation,
                          EvaluateAll(query, num_threads));
  return internal::RankTopK(
      evaluation, k, [](size_t i) { return static_cast<uint64_t>(i); },
      [this](size_t i) { return candidates_[i].ref; });
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

std::string IndexHeader(const JoinMIConfig& config, uint64_t count) {
  std::string out;
  wire::AppendRaw(&out, kIndexMagic, sizeof(kIndexMagic));
  wire::AppendPod<uint32_t>(&out, kIndexVersion);
  // The config layout is the shared one from core/config.cc; the index
  // format predates that sharing, so the bytes are unchanged.
  AppendJoinMIConfig(&out, config);
  wire::AppendPod<uint64_t>(&out, count);
  return out;
}

// A record's four length-prefixed fields: the ref strings, then the
// serialized sketch.
Status ReadRecordFields(wire::Reader* reader, ColumnPairRef* ref,
                        std::string* blob) {
  JOINMI_RETURN_NOT_OK(reader->ReadLengthPrefixed(&ref->table_name));
  JOINMI_RETURN_NOT_OK(reader->ReadLengthPrefixed(&ref->key_column));
  JOINMI_RETURN_NOT_OK(reader->ReadLengthPrefixed(&ref->value_column));
  return reader->ReadLengthPrefixed(blob);
}

// One record, its sketch decoded.
Status ReadCandidateRecord(wire::Reader* reader, CandidateRecord* out) {
  std::string blob;
  JOINMI_RETURN_NOT_OK(ReadRecordFields(reader, &out->ref, &blob));
  JOINMI_ASSIGN_OR_RETURN(out->sketch, DeserializeSketch(blob));
  return Status::OK();
}

// Attributes a failure to the candidate it happened in — "the file ended
// inside candidate 37 of 100" localizes a truncation where a bare
// "truncated buffer" cannot.
Status AtCandidate(const Status& st, size_t i, size_t count) {
  return Status(st.code(), "candidate " + std::to_string(i) + " of " +
                               std::to_string(count) + ": " + st.message());
}

// Parses a "JMIX" header into `*config` and returns the candidate count,
// leaving `reader` at the first record.
Result<uint64_t> ReadIndexHeader(const std::string& data,
                                 wire::Reader* reader, JoinMIConfig* config) {
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
  char magic[4];
  JOINMI_RETURN_NOT_OK(reader->Read(&magic));
  if (std::memcmp(magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return Status::IOError("bad index magic");
  }
  uint32_t version = 0;
  JOINMI_RETURN_NOT_OK(reader->Read(&version));
  if (version != kIndexVersion) {
    return Status::IOError("unsupported index version " +
                           std::to_string(version));
  }
  JOINMI_ASSIGN_OR_RETURN(*config, ReadJoinMIConfig(reader));
  uint64_t count = 0;
  JOINMI_RETURN_NOT_OK(reader->Read(&count));
  // Each candidate needs at least 4 length prefixes (16 bytes) on the
  // wire; divide rather than multiply so a crafted count cannot overflow
  // past the check — nor in the message, which gives the per-candidate
  // minimum instead of a product that would wrap for such counts. The
  // check bounds what a caller reserves for `count` candidates, as
  // DeserializeSketch bounds its entry count before reserving.
  if (count > reader->remaining() / 16) {
    return Status::IOError(
        "index header promises " + std::to_string(count) +
        " candidates but only " + std::to_string(reader->remaining()) +
        " bytes follow the header (each candidate needs at least 16) — "
        "file truncated after the header");
  }
  return count;
}

Status CheckIndexEnd(const wire::Reader& reader) {
  return reader.AtEnd()
             ? Status::OK()
             : Status::IOError("trailing bytes after index payload");
}

}  // namespace

std::string EncodeCandidateRecord(const ColumnPairRef& ref,
                                  const Sketch& sketch) {
  std::string out;
  wire::AppendLengthPrefixed(&out, ref.table_name);
  wire::AppendLengthPrefixed(&out, ref.key_column);
  wire::AppendLengthPrefixed(&out, ref.value_column);
  wire::AppendLengthPrefixed(&out, SerializeSketch(sketch));
  return out;
}

Result<CandidateRecord> DecodeCandidateRecord(const std::string& record) {
  wire::Reader reader(record);
  CandidateRecord out;
  JOINMI_RETURN_NOT_OK(ReadCandidateRecord(&reader, &out));
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after candidate record");
  }
  return out;
}

std::string EncodeIndexRecords(const JoinMIConfig& config,
                               const std::vector<std::string>& records) {
  std::string out = IndexHeader(config, records.size());
  for (const std::string& record : records) out += record;
  return out;
}

std::string SerializeIndex(const SketchIndex& index) {
  std::string out = IndexHeader(index.config(), index.size());
  for (const IndexedCandidate& candidate : index.candidates()) {
    out += EncodeCandidateRecord(candidate.ref, candidate.sketch());
  }
  return out;
}

Result<IndexRecords> DecodeIndexRecords(const std::string& data) {
  wire::Reader reader(data);
  IndexRecords out;
  JOINMI_ASSIGN_OR_RETURN(const uint64_t count,
                          ReadIndexHeader(data, &reader, &out.config));
  out.records.reserve(count);
  ColumnPairRef ref;
  std::string blob;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t begin = data.size() - reader.remaining();
    Status st = ReadRecordFields(&reader, &ref, &blob);
    if (!st.ok()) return AtCandidate(st, i, count);
    out.records.push_back(
        data.substr(begin, data.size() - reader.remaining() - begin));
  }
  JOINMI_RETURN_NOT_OK(CheckIndexEnd(reader));
  return out;
}

Status VerifyCandidateRecord(const JoinMIConfig& config,
                             const std::string& record, size_t i,
                             size_t count) {
  auto candidate = DecodeCandidateRecord(record);
  Status st = candidate.status();
  if (st.ok()) {
    st = CheckIndexedSketch(config, candidate->ref, candidate->sketch);
  }
  return st.ok() ? st : AtCandidate(st, i, count);
}

Status VerifyIndexRecords(const std::string& data) {
  wire::Reader reader(data);
  JoinMIConfig config;
  JOINMI_ASSIGN_OR_RETURN(const uint64_t count,
                          ReadIndexHeader(data, &reader, &config));
  for (uint64_t i = 0; i < count; ++i) {
    CandidateRecord candidate;
    Status st = ReadCandidateRecord(&reader, &candidate);
    if (st.ok()) {
      st = CheckIndexedSketch(config, candidate.ref, candidate.sketch);
    }
    if (!st.ok()) return AtCandidate(st, i, count);
  }
  return CheckIndexEnd(reader);
}

Result<SketchIndex> DeserializeIndex(const std::string& data) {
  wire::Reader reader(data);
  JoinMIConfig config;
  JOINMI_ASSIGN_OR_RETURN(const uint64_t count,
                          ReadIndexHeader(data, &reader, &config));
  SketchIndex index(std::move(config));
  index.Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    // Append runs CheckIndexedSketch, so a tampered or mismatched payload
    // cannot produce a poisoned index.
    CandidateRecord candidate;
    Status st = ReadCandidateRecord(&reader, &candidate);
    if (st.ok()) st = index.Append(candidate.ref, std::move(candidate.sketch));
    if (!st.ok()) return AtCandidate(st, i, count);
  }
  JOINMI_RETURN_NOT_OK(CheckIndexEnd(reader));
  index.BuildPostings();
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
