// Hashing pipeline used by all sketches, mirroring Section IV of the paper:
// a collision-resistant object hash h (MurmurHash3) mapping inputs to
// integers, composed with a uniform unit hash h_u (Fibonacci multiplicative
// hashing) mapping integers to [0, 1).

#ifndef JOINMI_COMMON_HASHING_H_
#define JOINMI_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace joinmi {

namespace internal {

inline uint32_t Rotl32(uint32_t x, int r) {
  return (x << r) | (x >> (32 - r));
}
inline uint32_t Fmix32(uint32_t h) {
  h ^= h >> 16;
  h *= 0x85EBCA6BU;
  h ^= h >> 13;
  h *= 0xC2B2AE35U;
  h ^= h >> 16;
  return h;
}

}  // namespace internal

/// \brief MurmurHash3 x86_32 over an arbitrary byte buffer.
///
/// This is the paper's choice for the collision-free-in-practice object hash
/// `h`. The reference algorithm by Austin Appleby (public domain). Inline:
/// sketch builds hash one join key per row.
inline uint32_t MurmurHash3_32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t nblocks = len / 4;
  uint32_t h1 = seed;
  const uint32_t c1 = 0xCC9E2D51U;
  const uint32_t c2 = 0x1B873593U;

  for (size_t i = 0; i < nblocks; ++i) {
    uint32_t k1;
    std::memcpy(&k1, bytes + i * 4, sizeof(k1));
    k1 *= c1;
    k1 = internal::Rotl32(k1, 15);
    k1 *= c2;
    h1 ^= k1;
    h1 = internal::Rotl32(h1, 13);
    h1 = h1 * 5 + 0xE6546B64U;
  }

  const uint8_t* tail = bytes + nblocks * 4;
  uint32_t k1 = 0;
  switch (len & 3) {
    case 3:
      k1 ^= static_cast<uint32_t>(tail[2]) << 16;
      [[fallthrough]];
    case 2:
      k1 ^= static_cast<uint32_t>(tail[1]) << 8;
      [[fallthrough]];
    case 1:
      k1 ^= tail[0];
      k1 *= c1;
      k1 = internal::Rotl32(k1, 15);
      k1 *= c2;
      h1 ^= k1;
  }

  h1 ^= static_cast<uint32_t>(len);
  return internal::Fmix32(h1);
}

/// \brief MurmurHash3 over a string view.
inline uint32_t MurmurHash3_32(std::string_view s, uint32_t seed = 0) {
  return MurmurHash3_32(s.data(), s.size(), seed);
}

/// \brief 64-bit finalizer-style mix (MurmurHash3 fmix64). Bijective.
/// Inline, as are the three below: sketch builds call them once per row.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief 128->64 combiner for hashing composite keys such as the paper's
/// occurrence tuples ⟨k, j⟩: boost::hash_combine-style with a 64-bit
/// golden-ratio constant, followed by a strong finalizer so the result
/// feeds a unit hash safely.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

/// \brief 64-bit Fibonacci scramble without the unit-interval projection:
/// multiplies by 2^64 / phi, rounded to the nearest odd integer.
inline uint64_t FibonacciHash64(uint64_t x) {
  return x * 0x9E3779B97F4A7C15ULL;
}

/// \brief Fibonacci multiplicative hashing: multiplies by
/// 2^64 / phi and keeps the high bits, then maps to [0, 1).
///
/// This is the paper's uniform hash h_u. The golden-ratio multiplier
/// scatters consecutive integers maximally uniformly (Knuth, TAOCP v3).
/// The top 53 bits are kept so the double conversion is exact.
inline double FibonacciUnitHash(uint64_t x) {
  return static_cast<double>(FibonacciHash64(x) >> 11) * 0x1.0p-53;
}

/// \brief Full paper pipeline h_u(h(x)) for string data.
double UnitHash(std::string_view s, uint32_t seed = 0);

/// \brief Full paper pipeline h_u(h(x)) for integer data.
double UnitHash(uint64_t x);

}  // namespace joinmi

#endif  // JOINMI_COMMON_HASHING_H_
