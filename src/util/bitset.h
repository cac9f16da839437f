#ifndef VPART_UTIL_BITSET_H_
#define VPART_UTIL_BITSET_H_

#include <cstdint>

namespace vpart {

/// Word-array bitsets: index i is bit i % 64 of word i / 64, and both
/// operands of a call hold `words` words.

/// Calls fn(i) for every index i set in both `a` and `b`, ascending.
template <typename Fn>
inline void ForEachCommonBit(const uint64_t* a, const uint64_t* b, int words,
                             Fn&& fn) {
  for (int w = 0; w < words; ++w) {
    for (uint64_t bits = a[w] & b[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + __builtin_ctzll(bits));
    }
  }
}

/// Whether every index set in `a` is set in `b`.
inline bool IsSubset(const uint64_t* a, const uint64_t* b, int words) {
  for (int w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

}  // namespace vpart

#endif  // VPART_UTIL_BITSET_H_
