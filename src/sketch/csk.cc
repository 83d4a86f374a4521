// CSK: the paper's straightforward extension of Correlation Sketches
// (Santos et al., SIGMOD 2021) from correlation to MI estimation. KMV
// coordinated sampling over distinct keys; since CSK does not prescribe how
// to handle repeated join keys, the first value seen for a key is kept
// (Section V "Sketching Methods") — on both sides, i.e. no aggregation
// semantics are applied.

#include <unordered_set>

#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"

namespace joinmi {

namespace {

Result<Sketch> FirstValuePerKeyKmv(const SketchBuilder& builder,
                                   const Column& keys, const Column& values,
                                   Sketch sketch) {
  const SketchOptions& options = builder.options();
  // KMV over distinct keys; the first row seen for a key supplies its value.
  // Later rows with the same key are ignored entirely (CSK assumes unique
  // or aggregatable keys).
  KmvSelection sample(options.capacity,
                      [&values](size_t row) { return values.GetValue(row); });
  sketch.entries = sample.Select([&] {
    std::unordered_set<uint64_t> seen;
    seen.reserve(keys.size());
    WithKeyHasher(keys, options.hash_seed, [&](auto hash_at) {
      for (size_t row = 0; row < keys.size(); ++row) {
        if (!keys.IsValid(row) || !values.IsValid(row)) continue;
        const uint64_t key_hash = hash_at(row);
        if (!seen.insert(key_hash).second) continue;  // keep the first
        sample.Offer(KeyUnitHash(key_hash), key_hash, row);
      }
    });
  });
  return sketch;
}

}  // namespace

Result<Sketch> CskBuilder::SketchTrain(const Column& keys,
                                       const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kTrain));
  return FirstValuePerKeyKmv(*this, keys, values, std::move(sketch));
}

Result<Sketch> CskBuilder::SketchCandidate(const Column& keys,
                                           const Column& values,
                                           AggKind agg) const {
  // CSK ignores the aggregation function by design: the first value seen
  // associated with a join key is used instead (the paper's adaptation).
  (void)agg;
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kCandidate));
  return FirstValuePerKeyKmv(*this, keys, values, std::move(sketch));
}

}  // namespace joinmi
