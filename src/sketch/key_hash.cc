#include "src/sketch/key_hash.h"

#include "src/common/hashing.h"

namespace joinmi {

namespace internal {

uint64_t HashStringKey(const std::string& key, uint32_t seed) {
  const uint32_t h = MurmurHash3_32(key, seed);
  return Mix64((static_cast<uint64_t>(h) << 32) |
               (key.size() & 0xFFFFFFFFULL));
}

uint64_t HashNumericKey(double key, uint32_t seed) {
  // The canonical value hash mixed with the seed, as HashKey does.
  return Mix64(NumericValueHash(key) ^
               (static_cast<uint64_t>(seed) * 0x9E3779B9ULL));
}

}  // namespace internal

uint64_t HashKey(const Value& key, uint32_t seed) {
  if (key.is_string()) return internal::HashStringKey(key.str(), seed);
  // Numeric / null keys: mix the canonical value hash with the seed.
  return Mix64(key.Hash() ^ (static_cast<uint64_t>(seed) * 0x9E3779B9ULL));
}

uint64_t HashKeyAt(const Column& keys, size_t row, uint32_t seed) {
  uint64_t hash = 0;
  WithKeyHasher(keys, seed, [&](auto hash_at) { hash = hash_at(row); });
  return hash;
}

double KeyUnitHash(uint64_t key_hash) { return FibonacciUnitHash(key_hash); }

double TupleUnitHash(uint64_t key_hash, uint64_t occurrence) {
  return FibonacciUnitHash(HashCombine(key_hash, occurrence));
}

namespace internal {

ScopedKeyCoder::ScopedKeyCoder(size_t rows) {
  thread_local KeyCoder retained;
  coder_ = rows <= kMaxRetainedCoderRows ? &retained : &local_;
  coder_->Reset(rows);
}

}  // namespace internal

}  // namespace joinmi
