#include "src/common/hashing.h"

namespace joinmi {

double UnitHash(std::string_view s, uint32_t seed) {
  const uint32_t h = MurmurHash3_32(s, seed);
  // Widen through a bijective mix before the Fibonacci projection so the
  // unit values use all 64 input bits.
  return FibonacciUnitHash(Mix64(h));
}

double UnitHash(uint64_t x) { return FibonacciUnitHash(Mix64(x)); }

}  // namespace joinmi
