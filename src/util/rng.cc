#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace kgacc {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(&state);
}

uint64_t HashCombine(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t h = seed;
  h = Mix64(h ^ (a + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
  h = Mix64(h ^ (b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
  return h;
}

double ToUnitDouble(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256++ by Blackman & Vigna (public domain reference implementation).
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::UniformDouble() { return ToUnitDouble(NextUint64()); }

double Rng::UniformDouble(double lo, double hi) {
  KGACC_DCHECK(lo <= hi);
  return lo + (hi - lo) * UniformDouble();
}

double Rng::UniformDoublePositive() {
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return u;
}

uint64_t Rng::UniformIndex(uint64_t n) {
  KGACC_DCHECK(n > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t threshold = (0 - n) % n;
    while (l < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  KGACC_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformIndex(span));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  has_spare_gaussian_ = true;
  return u * factor;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

Rng Rng::Fork(uint64_t stream) {
  return Rng(HashCombine(NextUint64(), stream));
}

std::array<uint64_t, 4> Rng::State() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::SetState(const std::array<uint64_t, 4>& state) {
  KGACC_CHECK(ValidState(state)) << "all-zero xoshiro state";
  for (int i = 0; i < 4; ++i) s_[i] = state[i];
  has_spare_gaussian_ = false;
}

}  // namespace kgacc
