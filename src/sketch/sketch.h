// Sketch container and shared sampling machinery. A sketch is a bounded set
// of ⟨h(k), value⟩ tuples selected by a method-specific sampling rule;
// KmvSelection ("k minimum values") implements the bounded-minimum-rank
// selection every coordinated method uses.

#ifndef JOINMI_SKETCH_SKETCH_H_
#define JOINMI_SKETCH_SKETCH_H_

#include <cstdint>
#include <functional>
#include <limits>
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

/// \brief Bounded min-rank selection: keeps the `capacity` offered items
/// least by rank, then key hash, then value hash, so selection is
/// deterministic. An item is (rank, key hash, index), and value_at(index)
/// its Value: the selection reads it only to break a full (rank, key hash)
/// tie and to build the survivors' entries, so the callers offer row or
/// aggregate indices, not Values.
///
/// Admitted items collect in a buffer; each time it holds 2 x capacity,
/// nth_element keeps the capacity least and lowers the admission bound to
/// the greatest rank kept. An item at the bound is still admitted: its tie
/// breaks on key hash and value hash. Items tied on all three are
/// interchangeable.
///
/// Ranks uniform on [0, 1) from N offers put about capacity x r / N of
/// them below any r, so a caller that knows N (`num_offers`; 0 = unknown)
/// lets the selection start from a provisional bound of 1.5 x capacity /
/// N when N exceeds 4 x capacity: most offers then fail one compare and
/// are never buffered (the sample-as-threshold-filter view of KMV, Beyer
/// et al., SIGMOD 2007). The bound is exact whenever at least capacity
/// offers pass it: the capacity least then all lie at or below it. When
/// fewer pass — ranks far from uniform, or fewer offers than N — Select
/// forgets them, drops the bound and offers everything again, so the
/// result always equals the unfiltered selection's.
class KmvSelection {
 public:
  using ValueAt = std::function<Value(size_t index)>;

  /// \brief value_at must give a Value for every index offered, until
  /// Select returns.
  KmvSelection(size_t capacity, ValueAt value_at, size_t num_offers = 0);

  void Offer(double rank, uint64_t key_hash, size_t index) {
    if (capacity_ == 0 || rank > bound_) return;
    items_.push_back(Item{rank, key_hash, index});
    if (items_.size() == 2 * capacity_) KeepLeast();
  }

  /// \brief Calls offer_all(), which must Offer every item, and returns
  /// the survivors as entries sorted by (key hash, rank, value hash). If
  /// the provisional bound let fewer than capacity items in, offer_all runs
  /// a second time with no bound, so it must start from scratch each time.
  /// The selection empties, and drops any bound.
  template <typename OfferAll>
  std::vector<SketchEntry> Select(OfferAll&& offer_all) {
    offer_all();
    // Below capacity items, no KeepLeast ran: a finite bound is the
    // provisional one, and it may have turned away part of the sample.
    if (items_.size() < capacity_ && bound_ != kNoBound) {
      items_.clear();
      bound_ = kNoBound;
      offer_all();
    }
    return TakeSorted();
  }

 private:
  struct Item {
    double rank;
    uint64_t key_hash;
    size_t index;
  };

  static constexpr double kNoBound = std::numeric_limits<double>::infinity();

  uint64_t ValueHash(const Item& item) const;
  bool RankLess(const Item& a, const Item& b) const;
  void KeepLeast();
  std::vector<SketchEntry> TakeSorted();

  size_t capacity_;
  ValueAt value_at_;
  double bound_;
  std::vector<Item> items_;
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
