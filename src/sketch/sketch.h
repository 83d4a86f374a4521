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

/// \brief Which side of the join-aggregation query a sketch represents.
enum class SketchSide : uint8_t {
  kTrain = 0,  ///< left/base table: repeated keys sampled, not aggregated
  kCandidate,  ///< right table: values aggregated per key (unique keys)
};

/// \brief A built sketch plus provenance metadata. Its sampled tuples are
/// stored as columns: entry i is the hashed join key h(k) `key_hashes[i]`,
/// its selection rank `ranks[i]` and the value x_k / y_k as the word
/// `value_words[i]` — a number's double bits (an int64 widened), any other
/// value's Value::Hash(). Those are all an estimator reads, so a value's
/// bytes are not kept: two strings with equal Value::Hash() were already
/// one value to every estimator.
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
  std::vector<uint64_t> key_hashes;
  std::vector<double> ranks;
  std::vector<uint64_t> value_words;
  /// The types of every entry's value.
  ValueTypes value_types;
  /// Entry i's type — kNull, kString, or kDouble for any number — only
  /// when value_types is not homogeneous (a null, or numbers beside
  /// strings); empty otherwise, when value_types alone gives every type.
  std::vector<DataType> mixed_types;
  /// Rows of the source relation that had non-null key and value.
  size_t source_rows = 0;
  /// Distinct non-null keys in the source relation.
  size_t source_distinct_keys = 0;

  size_t size() const { return key_hashes.size(); }

  /// \brief Appends entry (key_hash, rank, value); the caller keeps the
  /// (key_hash, rank) order.
  void Append(uint64_t key_hash, double rank, const Value& value);
  /// \brief Room for `entries` entries in each column.
  void Reserve(size_t entries);
  /// \brief InvalidArgument unless the columns agree: a rank and a value
  /// word per key hash, and a type per entry exactly when the summary is
  /// mixed. Every reader that indexes one column by another checks this.
  Status CheckColumns() const;

  /// \brief Entry i's value type: kNull, kString, or kDouble for a number.
  DataType ValueType(size_t i) const {
    if (!mixed_types.empty()) return mixed_types[i];
    return value_types.all_numeric ? DataType::kDouble : DataType::kString;
  }
  /// \brief Entry i's number (0 unless it is numeric).
  double ValueNumber(size_t i) const;
  /// \brief Entry i's Value::Hash().
  uint64_t ValueHash(size_t i) const;
};

/// \brief A number's value word, and back.
uint64_t NumberWord(double number);
double WordNumber(uint64_t word);

/// \brief Bounded min-rank selection: keeps the `capacity` offered items
/// least by rank, then key hash, then value hash, so selection is
/// deterministic. An item is (rank, key hash, index), and value_at(index)
/// its Value: the selection reads it only to break a full (rank, key hash)
/// tie and to append the survivors to a sketch, so the callers offer row or
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

  /// \brief Calls offer_all(), which must Offer every item, and appends
  /// the survivors to `out` sorted by (key hash, rank, value hash). If the
  /// provisional bound let fewer than capacity items in, offer_all runs a
  /// second time with no bound, so it must start from scratch each time.
  /// The selection empties, and drops any bound.
  template <typename OfferAll>
  void Select(OfferAll&& offer_all, Sketch* out) {
    offer_all();
    // Below capacity items, no KeepLeast ran: a finite bound is the
    // provisional one, and it may have turned away part of the sample.
    if (items_.size() < capacity_ && bound_ != kNoBound) {
      items_.clear();
      bound_ = kNoBound;
      offer_all();
    }
    TakeSorted(out);
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
  void TakeSorted(Sketch* out);

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
