#ifndef VPART_UTIL_RNG_H_
#define VPART_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vpart {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// splitmix64. Deterministic across platforms so that experiment tables are
/// reproducible run-to-run and machine-to-machine (std::mt19937 distributions
/// are not portable across standard library implementations).
///
/// The draws the SA inner loop makes (Next, NextBounded, NextDouble and
/// the buffer-filling sample) are defined here so they inline into it.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1): the 53 high bits of Next().
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBool(double p);

  /// Picks `k` distinct indices from [0, n) in random order (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);
  /// As above, into out[0, k): the same draws, in storage of n ints that
  /// the caller reuses, so its loop allocates nothing. out[k, n) is
  /// scratch.
  void SampleWithoutReplacement(int n, int k, int* out) {
    assert(k >= 0 && k <= n);
    for (int i = 0; i < n; ++i) out[i] = i;
    // Partial Fisher-Yates: the first k entries are the sample.
    for (int i = 0; i < k; ++i) {
      const int j = i + static_cast<int>(NextBounded(n - i));
      std::swap(out[i], out[j]);
    }
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = NextBounded(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Forks an independent stream; deterministic function of current state.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace vpart

#endif  // VPART_UTIL_RNG_H_
