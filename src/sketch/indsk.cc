// INDSK: independent Bernoulli/uniform sampling baseline (Section V
// "Sketching Methods"). Each table draws a uniform reservoir sample of n
// rows with its own seed — no hash coordination — so the expected overlap of
// sampled keys, and hence the recovered join size, is quadratically smaller
// (Acharya et al. 1999), which is what Table I demonstrates.

#include <algorithm>

#include "src/common/random.h"
#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"

namespace joinmi {

namespace {

/// Reservoir-samples up to n usable rows; ranks are the sampling order
/// (arbitrary but deterministic for a fixed seed).
Result<Sketch> ReservoirRows(const SketchBuilder& builder, const Column& keys,
                             const Column& values, Sketch sketch) {
  const SketchOptions& options = builder.options();
  Rng rng(options.sampling_seed);
  std::vector<SketchEntry> reservoir;
  reservoir.reserve(options.capacity);
  size_t seen = 0;
  WithKeyHasher(keys, options.hash_seed, [&](auto hash_at) {
    for (size_t row = 0; row < keys.size(); ++row) {
      if (!keys.IsValid(row) || !values.IsValid(row)) continue;
      const uint64_t key_hash = hash_at(row);
      ++seen;
      if (reservoir.size() < options.capacity) {
        reservoir.push_back(
            SketchEntry{key_hash, 0.0, values.GetValue(row)});
      } else {
        const uint64_t slot = rng.NextBounded(seen);
        if (slot < options.capacity) {
          reservoir[slot] = SketchEntry{key_hash, 0.0, values.GetValue(row)};
        }
      }
    }
  });
  sketch.entries = std::move(reservoir);
  std::sort(sketch.entries.begin(), sketch.entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
              return a.value.Hash() < b.value.Hash();
            });
  return sketch;
}

}  // namespace

Result<Sketch> IndskBuilder::SketchTrain(const Column& keys,
                                         const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kTrain));
  return ReservoirRows(*this, keys, values, std::move(sketch));
}

Result<Sketch> IndskBuilder::SketchCandidate(const Column& keys,
                                             const Column& values,
                                             AggKind agg) const {
  std::vector<AggregatedKey> aggregated;
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          AggregateCandidate(keys, values, agg, &aggregated));
  // Uniform reservoir over the aggregated (unique) keys, independent seed.
  Rng rng(options_.sampling_seed ^ 0xC0FFEEULL);
  std::vector<SketchEntry> reservoir;
  reservoir.reserve(options_.capacity);
  size_t seen = 0;
  for (const AggregatedKey& entry : aggregated) {
    ++seen;
    if (reservoir.size() < options_.capacity) {
      reservoir.push_back(SketchEntry{entry.key_hash, 0.0, entry.value});
    } else {
      const uint64_t slot = rng.NextBounded(seen);
      if (slot < options_.capacity) {
        reservoir[slot] = SketchEntry{entry.key_hash, 0.0, entry.value};
      }
    }
  }
  sketch.entries = std::move(reservoir);
  std::sort(sketch.entries.begin(), sketch.entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              return a.key_hash < b.key_hash;
            });
  return sketch;
}

}  // namespace joinmi
