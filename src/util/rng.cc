#include "util/rng.h"

#include <cassert>

namespace vpart {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
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

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless bounded generation.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  std::vector<int> sample;
  SampleWithoutReplacement(n, k, sample);
  return sample;
}

void Rng::SampleWithoutReplacement(int n, int k, std::vector<int>& out) {
  assert(k >= 0 && k <= n);
  out.resize(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  // Partial Fisher-Yates: the first k entries are the sample.
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(NextBounded(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ull); }

}  // namespace vpart
