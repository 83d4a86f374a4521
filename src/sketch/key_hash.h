// Join-key hashing for sketches (Section IV "Approach Overview"): the
// object hash h maps key values to integers; the uniform hash h_u maps
// integers to [0, 1). TUPSK additionally hashes occurrence tuples ⟨k, j⟩.

#ifndef JOINMI_SKETCH_KEY_HASH_H_
#define JOINMI_SKETCH_KEY_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/hashing.h"
#include "src/mi/histogram.h"
#include "src/table/column.h"
#include "src/table/value.h"

namespace joinmi {

/// \brief h(k): 64-bit object hash of a join-key value. Strings go through
/// MurmurHash3; numerics through a bijective mix of their bit pattern.
/// Seeded so independent sketch universes can coexist.
uint64_t HashKey(const Value& key, uint32_t seed = 0);

namespace internal {

/// \brief HashKey of a string key and of a numeric key (an int64 as its
/// widened double), without a Value.
inline uint64_t HashStringKey(const std::string& key, uint32_t seed) {
  const uint32_t h = MurmurHash3_32(key, seed);
  return Mix64((static_cast<uint64_t>(h) << 32) |
               (key.size() & 0xFFFFFFFFULL));
}
uint64_t HashNumericKey(double key, uint32_t seed);

}  // namespace internal

/// \brief Returns fn(hash_at), called once, where hash_at(row) is HashKey(
/// keys.GetValue(row), seed) read through the column's typed storage: the
/// switch on the key type is taken here, once, not per row, and a string
/// key is hashed in place, not copied into a Value. fn must return the
/// same type for every hasher. hash_at's precondition: keys.IsValid(row).
template <typename Fn>
auto WithKeyHasher(const Column& keys, uint32_t seed, Fn&& fn) {
  switch (keys.type()) {
    case DataType::kString:
      return fn([&keys, seed](size_t row) {
        return internal::HashStringKey(keys.StringAt(row), seed);
      });
    case DataType::kInt64:
      return fn([&keys, seed](size_t row) {
        return internal::HashNumericKey(
            static_cast<double>(keys.Int64At(row)), seed);
      });
    case DataType::kDouble:
      return fn([&keys, seed](size_t row) {
        return internal::HashNumericKey(keys.DoubleAt(row), seed);
      });
    case DataType::kNull:
      break;
  }
  return fn(
      [&keys, seed](size_t row) { return HashKey(keys.GetValue(row), seed); });
}

/// \brief h_u(h(k)): unit-interval rank of a key hash (Fibonacci hashing).
inline double KeyUnitHash(uint64_t key_hash) {
  return FibonacciUnitHash(key_hash);
}

/// \brief h_u(⟨k, j⟩): unit rank of the j-th occurrence of key k (j >= 1).
/// TUPSK's sampling frame; ⟨k, 1⟩ coincides with the candidate-side rank so
/// first occurrences stay coordinated.
inline double TupleUnitHash(uint64_t key_hash, uint64_t occurrence) {
  return FibonacciUnitHash(HashCombine(key_hash, occurrence));
}

namespace internal {

/// \brief Largest column (in rows, which bound its distinct keys) whose
/// KeyCoder a thread keeps between sketch builds: about 0.7 MB of slots,
/// keys and counts. Query and candidate tables on the serving path stay
/// below it, so a warmed thread sketches them without allocating; a larger
/// column gets a call-local coder that is freed on return, so no thread
/// keeps the table of the largest column it ever sketched.
inline constexpr size_t kMaxRetainedCoderRows = 16384;

/// \brief The KeyCoder of one sketch build — dense first-appearance codes
/// of key hashes with a count per code — Reset for a column of `rows`
/// rows: the calling thread's reused coder up to kMaxRetainedCoderRows, a
/// call-local one above. Its table is sized up front for every row a
/// distinct key, up to kMaxRetainedCoderRows keys, so a build at or below
/// that bound never grows it. Builds on one thread must not nest.
class ScopedKeyCoder {
 public:
  explicit ScopedKeyCoder(size_t rows);

  ScopedKeyCoder(const ScopedKeyCoder&) = delete;
  ScopedKeyCoder& operator=(const ScopedKeyCoder&) = delete;

  KeyCoder* operator->() { return coder_; }

 private:
  KeyCoder local_;  // empty (no storage) unless the column is large
  KeyCoder* coder_;
};

}  // namespace internal

}  // namespace joinmi

#endif  // JOINMI_SKETCH_KEY_HASH_H_
