#ifndef VPART_UTIL_RNG_H_
#define VPART_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vpart {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// splitmix64. Deterministic across platforms so that experiment tables are
/// reproducible run-to-run and machine-to-machine (std::mt19937 distributions
/// are not portable across standard library implementations).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBool(double p);

  /// Picks `k` distinct indices from [0, n) in random order (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);
  /// As above, into `out` (resized to k): the same draws, in storage the
  /// caller reuses so its loop allocates nothing.
  void SampleWithoutReplacement(int n, int k, std::vector<int>& out);

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
  uint64_t s_[4];
};

}  // namespace vpart

#endif  // VPART_UTIL_RNG_H_
