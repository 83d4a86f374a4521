// Frequency statistics for discrete (plug-in) entropy and MI estimation:
// dense integer coding of type-erased values and marginal histograms, plus
// KeyCoder, the allocation-free counting coder the MI estimators run on
// (their joint tables are a KeyCoder over packed code pairs).

#ifndef JOINMI_MI_HISTOGRAM_H_
#define JOINMI_MI_HISTOGRAM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/table/value.h"

namespace joinmi {

/// \brief Maps arbitrary hashable values to dense codes 0..m-1 in
/// first-appearance order.
class ValueCoder {
 public:
  /// \brief Code for `v`, assigning a fresh one on first sight.
  uint32_t Encode(const Value& v);

  /// \brief Existing code, or -1 if unseen.
  int64_t Lookup(const Value& v) const;

  size_t num_codes() const { return next_code_; }

 private:
  std::unordered_map<uint64_t, uint32_t> codes_;
  uint32_t next_code_ = 0;
};

/// \brief Dense first-appearance coding of u64 keys (value hashes, class
/// keys, packed code pairs) with a count per code, in flat storage reused
/// across Reset: an open-addressing table whose slots are invalidated by
/// bumping a generation stamp, so Reset is O(1) and a warmed coder never
/// allocates. The table doubles whenever it passes half full, so its size
/// follows the distinct keys seen, not the number of Adds.
class KeyCoder {
 public:
  /// \brief Forgets every key, starting the table sized for
  /// min(expected_keys, max_initial_keys) distinct keys.
  void Reset(size_t expected_keys, size_t max_initial_keys = kMaxInitialKeys);

  /// \brief Code of `key` — the next unused one on first sight — counting
  /// one occurrence of it.
  uint32_t Add(uint64_t key) { return Insert(key).code; }

  /// \brief Add, returning the count of `key` since Reset, this occurrence
  /// included, instead of its code: the count comes from the increment,
  /// with no second lookup of counts().
  uint32_t AddOccurrence(uint64_t key) { return Insert(key).count; }

  /// \brief Distinct keys since Reset; codes are 0..size()-1.
  size_t size() const { return next_code_; }
  /// \brief counts()[c] = occurrences of code c since Reset.
  const uint32_t* counts() const { return counts_.data(); }

  /// \brief Initial table size cap: a large sample with few distinct keys
  /// gets a small table.
  static constexpr size_t kMaxInitialKeys = 1024;

 private:
  struct Slot {
    uint64_t key;
    uint32_t stamp;
    uint32_t code;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // A key's code and its count after one more occurrence.
  struct Inserted {
    uint32_t code;
    uint32_t count;
  };

  Inserted Insert(uint64_t key) {
    size_t slot = Home(key);
    while (true) {
      Slot& s = slots_[slot];
      if (s.stamp != stamp_) {
        if (next_code_ == max_codes_) {
          Grow();
          return Insert(key);
        }
        s = Slot{key, stamp_, next_code_};
        keys_[next_code_] = key;
        counts_[next_code_] = 1;
        return Inserted{next_code_++, 1};
      }
      if (s.key == key) return Inserted{s.code, ++counts_[s.code]};
      slot = (slot + 1) & mask_;
    }
  }

  // Uses the first `capacity` slots (a power of two, 2^bits), all empty.
  void UseSlots(size_t capacity, int bits);
  // Doubles the table, re-placing every key under its code.
  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint64_t> keys_;  // keys_[c] = the key of code c
  std::vector<uint32_t> counts_;
  uint32_t stamp_ = 0;
  uint32_t next_code_ = 0;
  uint32_t max_codes_ = 0;  // half the slots in use
  size_t mask_ = 0;
  int shift_ = 64;
};

/// \brief Marginal frequency histogram over dense codes.
struct Histogram {
  std::vector<uint64_t> counts;  // index = code
  uint64_t total = 0;

  size_t num_bins() const { return counts.size(); }
};

/// \brief Builds a histogram over codes (bins sized to max code + 1).
Histogram BuildHistogram(const std::vector<uint32_t>& codes);

}  // namespace joinmi

#endif  // JOINMI_MI_HISTOGRAM_H_
