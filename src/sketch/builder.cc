#include "src/sketch/builder.h"

#include "src/sketch/key_hash.h"

namespace joinmi {

Result<Sketch> SketchBuilder::NewSketch(const Column& keys,
                                        const Column& values,
                                        SketchSide side) const {
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("key/value column length mismatch");
  }
  if (options_.capacity == 0) {
    return Status::InvalidArgument("sketch capacity must be positive");
  }
  Sketch sketch;
  sketch.method = method();
  sketch.side = side;
  sketch.capacity = options_.capacity;
  sketch.hash_seed = options_.hash_seed;
  return sketch;
}

Result<Sketch> SketchBuilder::InitSketch(const Column& keys,
                                         const Column& values,
                                         SketchSide side) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch, NewSketch(keys, values, side));
  internal::ScopedKeyCoder distinct(keys.size());
  WithKeyHasher(keys, options_.hash_seed, [&](auto hash_at) {
    for (size_t row = 0; row < keys.size(); ++row) {
      if (!keys.IsValid(row) || !values.IsValid(row)) continue;
      ++sketch.source_rows;
      distinct->Add(hash_at(row));
    }
  });
  sketch.source_distinct_keys = distinct->size();
  return sketch;
}

Result<Sketch> SketchBuilder::AggregateCandidate(
    const Column& keys, const Column& values, AggKind agg,
    std::vector<AggregatedKey>* aggregated) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          NewSketch(keys, values, SketchSide::kCandidate));
  JOINMI_ASSIGN_OR_RETURN(
      *aggregated, AggregateByKey(keys, values, agg, options_.hash_seed));
  sketch.source_distinct_keys = aggregated->size();
  for (const AggregatedKey& entry : *aggregated) {
    sketch.source_rows += entry.frequency;
  }
  return sketch;
}

Result<Sketch> SketchBuilder::SketchCandidate(const Column& keys,
                                              const Column& values,
                                              AggKind agg) const {
  std::vector<AggregatedKey> aggregated;
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          AggregateCandidate(keys, values, agg, &aggregated));
  // Aggregation leaves unique keys, so every coordinated method reduces to
  // KMV over the method's key rank (the paper's observation that the
  // candidate-side selection probability is uniform because m_K = N after
  // aggregation).
  KmvSelection sample(
      options_.capacity,
      [&aggregated](size_t i) { return aggregated[i].value; },
      aggregated.size());
  sketch.entries = sample.Select([&] {
    for (size_t i = 0; i < aggregated.size(); ++i) {
      const uint64_t key_hash = aggregated[i].key_hash;
      sample.Offer(CandidateRank(key_hash), key_hash, i);
    }
  });
  return sketch;
}

double SketchBuilder::CandidateRank(uint64_t key_hash) const {
  return KeyUnitHash(key_hash);
}

std::unique_ptr<SketchBuilder> MakeSketchBuilder(SketchMethod method,
                                                 SketchOptions options) {
  switch (method) {
    case SketchMethod::kTupsk:
      return std::make_unique<TupskBuilder>(options);
    case SketchMethod::kLv2sk:
      return std::make_unique<Lv2skBuilder>(options);
    case SketchMethod::kPrisk:
      return std::make_unique<PriskBuilder>(options);
    case SketchMethod::kIndsk:
      return std::make_unique<IndskBuilder>(options);
    case SketchMethod::kCsk:
      return std::make_unique<CskBuilder>(options);
  }
  return nullptr;
}

}  // namespace joinmi
