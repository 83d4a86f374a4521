// TUPSK: tuple-based sampling (Section IV-B). Each row is identified by the
// occurrence tuple ⟨k, j⟩ — key value k appearing for the j-th time — and
// ranked by h_u(⟨k, j⟩). Keeping the n minimum ranks gives every row the
// same inclusion probability regardless of the key-frequency distribution,
// which is the property that removes the estimator bias LV2SK suffers under
// key-target dependence.

#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"

namespace joinmi {

Result<Sketch> TupskBuilder::SketchTrain(const Column& keys,
                                         const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          NewSketch(keys, values, SketchSide::kTrain));
  // At least this many rows have both a key and a value: the offers the
  // selection's provisional bound is set for.
  const size_t null_rows = keys.null_count() + values.null_count();
  const size_t usable_rows =
      keys.size() > null_rows ? keys.size() - null_rows : 0;
  KmvSelection sample(
      options_.capacity,
      [&values](size_t row) { return values.GetValue(row); }, usable_rows);
  // One fused pass: each row's key is hashed once, by a hasher picked once
  // for the key column's type, counted for its occurrence index j, ranked
  // by h_u(⟨k, j⟩) and offered. The coder also yields the distinct-key
  // count. The selection holds rows; only its survivors build a Value.
  sample.Select(
      [&] {
        internal::ScopedKeyCoder occurrences(keys.size());
        sketch.source_rows = 0;
        WithKeyHasher(keys, options_.hash_seed, [&](auto hash_at) {
          for (size_t row = 0; row < keys.size(); ++row) {
            if (!keys.IsValid(row) || !values.IsValid(row)) continue;
            ++sketch.source_rows;
            const uint64_t key_hash = hash_at(row);
            const uint32_t j = occurrences->AddOccurrence(key_hash);
            sample.Offer(TupleUnitHash(key_hash, j), key_hash, row);
          }
        });
        sketch.source_distinct_keys = occurrences->size();
      },
      &sketch);
  return sketch;
}

double TupskBuilder::CandidateRank(uint64_t key_hash) const {
  // h_u(⟨k, 1⟩): aggregation leaves unique keys, and hashing the first
  // occurrence tuple keeps the candidate side coordinated with the j = 1
  // rows of the train sketch.
  return TupleUnitHash(key_hash, 1);
}

}  // namespace joinmi
