#pragma once

#include <array>
#include <cstdint>

namespace kgacc {

/// SplitMix64 step; also used standalone as a cheap 64-bit mixer for
/// deterministic, stateless pseudo-random values (e.g. lazy triple labels).
uint64_t SplitMix64(uint64_t* state);

/// Stateless avalanche mix of a single 64-bit value (finalizer of SplitMix64).
uint64_t Mix64(uint64_t x);

/// Combines a seed with up to two coordinates into a well-mixed 64-bit hash.
/// Deterministic across platforms; used to derive lazy per-triple randomness.
uint64_t HashCombine(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Maps a 64-bit hash to a double in [0, 1) using the top 53 bits.
double ToUnitDouble(uint64_t x);

/// Deterministic pseudo-random generator (xoshiro256++), seeded via
/// SplitMix64. Not thread-safe; create one per thread or per trial.
///
/// All sampling code in this library takes an Rng& rather than using global
/// state, so every experiment is reproducible from a single 64-bit seed.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform double in (0, 1] — useful for keys of the form u^(1/w) where
  /// u == 0 must be excluded.
  double UniformDoublePositive();

  /// Uniform integer in [0, n); n must be > 0. Unbiased (Lemire rejection).
  uint64_t UniformIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive; lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal deviate (Marsaglia polar method, cached spare).
  double Gaussian();

  /// Normal deviate with the given mean/stddev.
  double Gaussian(double mean, double stddev);

  /// Derives an independent child generator; `stream` distinguishes children
  /// created from the same parent state (e.g. one per trial index).
  Rng Fork(uint64_t stream);

  /// The four xoshiro256++ state words: with SetState, a checkpoint resumes
  /// the stream exactly where it was saved.
  std::array<uint64_t, 4> State() const;

  /// Resumes the stream at `state`, which must be a ValidState. Drops any
  /// cached Gaussian spare.
  void SetState(const std::array<uint64_t, 4>& state);

  /// False only for all-zero words, xoshiro's one state that never leaves
  /// itself (every output would be 0).
  static bool ValidState(const std::array<uint64_t, 4>& state) {
    return (state[0] | state[1] | state[2] | state[3]) != 0;
  }

 private:
  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace kgacc
