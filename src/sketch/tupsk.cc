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
  // One pass: each key is hashed once, by a hasher picked once for the
  // key column's type, and one coder yields both the running occurrence
  // index j of every key and the distinct-key count. The selection holds
  // rows; only its survivors build a Value.
  internal::ScopedKeyCoder occurrences(keys.size());
  KmvSelection sample(options_.capacity,
                      [&values](size_t row) { return values.GetValue(row); });
  WithKeyHasher(keys, options_.hash_seed, [&](auto hash_at) {
    for (size_t row = 0; row < keys.size(); ++row) {
      if (!keys.IsValid(row) || !values.IsValid(row)) continue;
      ++sketch.source_rows;
      const uint64_t key_hash = hash_at(row);
      // Add may grow the coder's storage: read counts() only after it.
      const uint32_t code = occurrences->Add(key_hash);
      const uint64_t j = occurrences->counts()[code];
      sample.Offer(TupleUnitHash(key_hash, j), key_hash, row);
    }
  });
  sketch.source_distinct_keys = occurrences->size();
  sketch.entries = sample.TakeSorted();
  return sketch;
}

double TupskBuilder::CandidateRank(uint64_t key_hash) const {
  // h_u(⟨k, 1⟩): aggregation leaves unique keys, and hashing the first
  // occurrence tuple keeps the candidate side coordinated with the j = 1
  // rows of the train sketch.
  return TupleUnitHash(key_hash, 1);
}

}  // namespace joinmi
