#include "src/sketch/key_hash.h"

namespace joinmi {

namespace internal {

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

namespace internal {

ScopedKeyCoder::ScopedKeyCoder(size_t rows) {
  thread_local KeyCoder retained;
  coder_ = rows <= kMaxRetainedCoderRows ? &retained : &local_;
  coder_->Reset(rows, kMaxRetainedCoderRows);
}

}  // namespace internal

}  // namespace joinmi
