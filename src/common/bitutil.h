#ifndef INCDB_COMMON_BITUTIL_H_
#define INCDB_COMMON_BITUTIL_H_

#include <bit>
#include <cstdint>

namespace incdb {
namespace bitutil {

/// Number of set bits in a 64-bit word.
inline int PopCount(uint64_t word) { return std::popcount(word); }

/// Number of set bits in a 32-bit word.
inline int PopCount32(uint32_t word) { return std::popcount(word); }

/// Index (0-based, from LSB) of the lowest set bit. Undefined for 0.
inline int CountTrailingZeros(uint64_t word) { return std::countr_zero(word); }

/// ceil(a / b) for positive integers.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// ceil(log2(x)) for x >= 1; returns 0 for x == 1.
inline int Log2Ceil(uint64_t x) {
  if (x <= 1) return 0;
  return 64 - std::countl_zero(x - 1);
}

/// Number of bits needed by a VA-file attribute with cardinality `c`:
/// b_i = ceil(lg(c + 1)). The +1 reserves the all-zeros code for missing.
inline int BitsForCardinality(uint64_t c) { return Log2Ceil(c + 1); }

/// A mask with the lowest `n` bits set (n in [0, 64]).
inline uint64_t LowBitsMask(int n) {
  if (n >= 64) return ~uint64_t{0};
  return (uint64_t{1} << n) - 1;
}

/// Zeroes every bit outside the bit range [begin, end) in the words that
/// span it: words[0] holds bits [begin / 64 * 64, begin / 64 * 64 + 64),
/// and the span ends with the word holding bit end - 1. Requires begin <
/// end.
inline void ClearOutsideRange(uint64_t begin, uint64_t end, uint64_t* words) {
  words[0] &= ~uint64_t{0} << (begin % 64);
  words[CeilDiv(end, 64) - begin / 64 - 1] &=
      LowBitsMask(static_cast<int>((end - 1) % 64) + 1);
}

}  // namespace bitutil
}  // namespace incdb

#endif  // INCDB_COMMON_BITUTIL_H_
