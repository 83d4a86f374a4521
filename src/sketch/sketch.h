// Sketch container and shared sampling machinery. A sketch is a bounded set
// of ⟨h(k), value⟩ tuples selected by a method-specific sampling rule; the
// KMV ("k minimum values") heap implements the bounded-minimum-rank
// selection every coordinated method uses.

#ifndef JOINMI_SKETCH_SKETCH_H_
#define JOINMI_SKETCH_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/join/aggregators.h"
#include "src/table/column.h"

namespace joinmi {

/// \brief Sketching methods evaluated in the paper (Section V).
enum class SketchMethod : uint8_t {
  kTupsk = 0,  ///< proposed: tuple-based uniform sampling
  kLv2sk,      ///< baseline: two-level sampling
  kPrisk,      ///< two-level with priority (frequency-weighted) level 1
  kIndsk,      ///< independent uniform row sampling (no coordination)
  kCsk,        ///< Correlation Sketches extension (first value per key)
};

const char* SketchMethodToString(SketchMethod method);
Result<SketchMethod> SketchMethodFromString(const std::string& name);

/// \brief One sampled tuple: the hashed join key, its selection rank, and
/// the attribute value carried into the sketch.
struct SketchEntry {
  uint64_t key_hash = 0;  ///< h(k)
  double rank = 0.0;      ///< unit-hash rank used for selection
  Value value;            ///< x_k / y_k
};

/// \brief Which side of the join-aggregation query a sketch represents.
enum class SketchSide : uint8_t {
  kTrain = 0,  ///< left/base table: repeated keys sampled, not aggregated
  kCandidate,  ///< right table: values aggregated per key (unique keys)
};

/// \brief A built sketch plus provenance metadata.
struct Sketch {
  SketchMethod method = SketchMethod::kTupsk;
  SketchSide side = SketchSide::kTrain;
  /// Capacity parameter n (the paper's single tuning knob).
  size_t capacity = 0;
  /// Hash seed the sketch was built with. Two sketches only join if their
  /// seeds agree; JoinSketches enforces this, so a persisted sketch probed
  /// by a mismatched-seed query fails loudly instead of returning garbage.
  uint32_t hash_seed = 0;
  /// Entries sorted by (key_hash, rank) for deterministic joins.
  std::vector<SketchEntry> entries;
  /// Rows of the source relation that had non-null key and value.
  size_t source_rows = 0;
  /// Distinct non-null keys in the source relation.
  size_t source_distinct_keys = 0;

  size_t size() const { return entries.size(); }
};

/// \brief Bounded min-rank selection: retains the `capacity` entries with
/// the smallest ranks (a max-heap on rank). Ties on rank are broken by
/// key_hash then value hash, keeping selection deterministic.
class KmvHeap {
 public:
  explicit KmvHeap(size_t capacity);

  size_t capacity() const { return capacity_; }
  size_t size() const { return heap_.size(); }

  /// \brief False if an entry with this rank would be rejected right now
  /// whatever its key: the heap is full and the rank is above its maximum.
  /// At an equal rank Offer breaks the tie, so callers offer the entry.
  bool WouldAdmit(double rank) const;

  /// \brief Offers an entry; evicts the current max-rank entry if full.
  void Offer(SketchEntry entry);

  /// \brief Extracts all entries sorted by (key_hash, rank); heap empties.
  std::vector<SketchEntry> TakeSorted();

 private:
  static bool RankLess(const SketchEntry& a, const SketchEntry& b);

  size_t capacity_;
  std::vector<SketchEntry> heap_;  // max-heap by RankLess
};

/// \brief A per-key aggregate: key hash, original key, aggregated value,
/// and the key's frequency in the source table.
struct AggregatedKey {
  uint64_t key_hash = 0;
  Value value;
  size_t frequency = 0;
};

/// \brief Runs the candidate-side aggregation (SELECT k, AGG(v) GROUP BY k)
/// returning per-key aggregates keyed by h(k). Rows with null key or value
/// are skipped. Deterministic first-appearance order.
Result<std::vector<AggregatedKey>> AggregateByKey(const Column& keys,
                                                  const Column& values,
                                                  AggKind agg,
                                                  uint32_t hash_seed);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_SKETCH_H_
