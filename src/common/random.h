// Deterministic pseudo-random generation. Every stochastic component in the
// library takes an explicit seed so experiments are reproducible; nothing
// reads global entropy.

#ifndef JOINMI_COMMON_RANDOM_H_
#define JOINMI_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace joinmi {

/// \brief splitmix64 step; also used to expand seeds.
uint64_t SplitMix64(uint64_t& state);

/// \brief xoshiro256** PRNG. Small, fast, and good enough statistically for
/// Monte-Carlo experiments (passes BigCrush). Not cryptographic.
class Rng {
 public:
  /// Seeds the four-word state by running splitmix64 on `seed`.
  explicit Rng(uint64_t seed = 0xB5297A4D9E3779B9ULL);

  /// \brief Next raw 64-bit output.
  uint64_t Next64();

  /// \brief Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [0, bound) without modulo bias (Lemire).
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief True with probability p.
  bool Bernoulli(double p);

  /// \brief Standard normal via Box–Muller (caches the second deviate).
  double Gaussian();
  double Gaussian(double mean, double stddev);

  /// \brief Binomial(n, p) sample. Uses direct simulation for small n and
  /// the BTPE-free normal-approximation-free inversion for large n * p;
  /// exact for all n (inversion by CDF walk is O(n p) expected).
  uint64_t Binomial(uint64_t n, double p);

  /// \brief Multinomial(n, probs) sample via sequential binomial
  /// conditioning. `probs` must sum to <= 1 + 1e-9; a residual category is
  /// NOT added (outputs have probs.size() entries).
  std::vector<uint64_t> Multinomial(uint64_t n, const std::vector<double>& probs);

  /// \brief Geometric-like Zipf(s) sample over {1..n} via rejection
  /// (Devroye). Used by the open-data simulator for skewed key frequencies.
  uint64_t Zipf(uint64_t n, double s);

  /// \brief Derives an independent child generator (for parallel streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace joinmi

#endif  // JOINMI_COMMON_RANDOM_H_
