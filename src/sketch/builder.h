// Sketch builder interface and concrete builders for the five methods
// evaluated in the paper. Every builder supports both sides of the
// join-aggregation query:
//  - SketchTrain: the left/base table (repeated join keys sampled, values
//    kept verbatim);
//  - SketchCandidate: a right/candidate table (values aggregated per key
//    with AGG, producing unique keys, then sampled).

#ifndef JOINMI_SKETCH_BUILDER_H_
#define JOINMI_SKETCH_BUILDER_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/sketch/sketch.h"

namespace joinmi {

/// \brief Builder configuration. `capacity` is the paper's single parameter
/// n — a hard bound on sketch size for TUPSK/INDSK/CSK and on the number of
/// level-1 keys for LV2SK/PRISK (whose total size is bounded by 2n).
struct SketchOptions {
  size_t capacity = 256;
  /// Shared seed for h; sketches only join if built with equal seeds.
  uint32_t hash_seed = 0;
  /// Seed for non-coordinated randomness (LV2SK level-2 subsampling, INDSK
  /// row sampling). Tables should use distinct values for independence.
  uint64_t sampling_seed = 0x5EEDBA5EULL;
};

/// \brief Abstract sketch builder.
class SketchBuilder {
 public:
  virtual ~SketchBuilder() = default;

  virtual SketchMethod method() const = 0;
  const SketchOptions& options() const { return options_; }

  /// \brief Sketches the base table side (keys may repeat).
  virtual Result<Sketch> SketchTrain(const Column& keys,
                                     const Column& values) const = 0;

  /// \brief Sketches a candidate table side, aggregating values per key.
  /// The default implementation covers every coordinated method: aggregate,
  /// then KMV-select capacity keys by h_u(⟨k, 1⟩).
  virtual Result<Sketch> SketchCandidate(const Column& keys,
                                         const Column& values,
                                         AggKind agg) const;

 protected:
  explicit SketchBuilder(SketchOptions options) : options_(options) {}

  /// \brief Validates paired columns and returns an empty sketch carrying
  /// this builder's metadata; the source counts are left at zero.
  Result<Sketch> NewSketch(const Column& keys, const Column& values,
                           SketchSide side) const;

  /// \brief NewSketch plus the usable-row and distinct-key counts.
  Result<Sketch> InitSketch(const Column& keys, const Column& values,
                            SketchSide side) const;

  /// \brief NewSketch for the candidate side plus the per-key aggregates
  /// into `aggregated`; the source counts are read off the aggregates.
  Result<Sketch> AggregateCandidate(const Column& keys, const Column& values,
                                    AggKind agg,
                                    std::vector<AggregatedKey>* aggregated)
      const;

  /// \brief Rank used for candidate-side key selection. Must match the
  /// train side's key rank for sample coordination: h_u(h(k)) for the
  /// key-hashing methods; TUPSK overrides with h_u(⟨k, 1⟩).
  virtual double CandidateRank(uint64_t key_hash) const;

  SketchOptions options_;
};

/// \brief TUPSK (Section IV-B, proposed): ranks each row by h_u(⟨k, j⟩)
/// where j is the occurrence index of key k, then keeps the n minimum.
/// Every row has uniform inclusion probability; the recovered join sample
/// is a uniform sample of the full left join.
class TupskBuilder : public SketchBuilder {
 public:
  explicit TupskBuilder(SketchOptions options) : SketchBuilder(options) {}
  SketchMethod method() const override { return SketchMethod::kTupsk; }
  Result<Sketch> SketchTrain(const Column& keys,
                             const Column& values) const override;

 protected:
  double CandidateRank(uint64_t key_hash) const override;
};

/// \brief LV2SK (Section IV-A, baseline): level 1 selects the n keys with
/// minimum h_u(h(k)); level 2 keeps n_k = max(1, floor(n * N_k / N)) rows
/// per selected key via uniform subsampling. Size bounded by 2n.
class Lv2skBuilder : public SketchBuilder {
 public:
  explicit Lv2skBuilder(SketchOptions options) : SketchBuilder(options) {}
  SketchMethod method() const override { return SketchMethod::kLv2sk; }
  Result<Sketch> SketchTrain(const Column& keys,
                             const Column& values) const override;
};

/// \brief PRISK: LV2SK with frequency-weighted priority sampling at level 1
/// (keys ranked by h_u(h(k)) / N_k, per Duffield-Lund-Thorup priorities).
class PriskBuilder : public SketchBuilder {
 public:
  explicit PriskBuilder(SketchOptions options) : SketchBuilder(options) {}
  SketchMethod method() const override { return SketchMethod::kPrisk; }
  Result<Sketch> SketchTrain(const Column& keys,
                             const Column& values) const override;
};

/// \brief INDSK baseline: uniform reservoir sample of n rows, independent
/// across tables (no hash coordination). Candidate side aggregates first,
/// then samples keys independently.
class IndskBuilder : public SketchBuilder {
 public:
  explicit IndskBuilder(SketchOptions options) : SketchBuilder(options) {}
  SketchMethod method() const override { return SketchMethod::kIndsk; }
  Result<Sketch> SketchTrain(const Column& keys,
                             const Column& values) const override;
  Result<Sketch> SketchCandidate(const Column& keys, const Column& values,
                                 AggKind agg) const override;
};

/// \brief CSK: Correlation Sketches [27] extended to MI. KMV over distinct
/// keys; repeated keys keep the first value seen (no aggregation — the
/// paper's adaptation, Section V "Sketching Methods").
class CskBuilder : public SketchBuilder {
 public:
  explicit CskBuilder(SketchOptions options) : SketchBuilder(options) {}
  SketchMethod method() const override { return SketchMethod::kCsk; }
  Result<Sketch> SketchTrain(const Column& keys,
                             const Column& values) const override;
  Result<Sketch> SketchCandidate(const Column& keys, const Column& values,
                                 AggKind agg) const override;
};

/// \brief Factory over SketchMethod.
std::unique_ptr<SketchBuilder> MakeSketchBuilder(SketchMethod method,
                                                 SketchOptions options);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_BUILDER_H_
