// CRC-32 by carry-less multiplication, the crc32 kernel of the sse2 and
// avx2 levels. Four 16-byte lanes fold 64 bytes of input per step; the
// lanes are then folded into one, that one down to 64 bits, and a Barrett
// reduction gives the 32-bit remainder (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
// 2009; zlib's crc32_simd uses the same constants). Inputs under 64 bytes
// and the final under-16-byte tail take the scalar level's slicing-by-8.
//
// This translation unit alone is compiled with -mpclmul (src/simd/
// CMakeLists.txt); the dispatcher hands out the tables that point here
// only after a cpuid check for pclmul. On targets built without the ISA
// this TU is empty: the sse2/avx2 accessors degrade to the scalar table
// there, so nothing refers to Crc32Pclmul.

#include "simd/simd_isa.h"

#if defined(__PCLMUL__) && defined(__SSE4_2__)

#include <emmintrin.h>
#include <smmintrin.h>
#include <wmmintrin.h>

#include <cstddef>
#include <cstdint>

namespace incdb {
namespace simd {
namespace internal {
namespace {

// x^n mod P(x) for P = 0x104C11DB7, bit-reflected and shifted left by one,
// as the reflected-domain fold needs them: k1/k2 fold a lane across 512
// bits (n = 4*128 + 32, 4*128 - 32), k3/k4 across 128 bits (n = 128 + 32,
// 128 - 32) and k5 folds 96 bits to 64 (n = 64).
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
// Barrett reduction: the reflected polynomial P' and mu = x^64 / P(x),
// reflected.
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies the low half of `lane` by k.lo and its high half by k.hi,
// carry-less, and XORs both products into `next`: the lane's remainder
// carried forward by the distance the constants encode.
inline __m128i Fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

// The raw remainder register after `size` bytes, for size >= 64 and a
// multiple of 16.
uint32_t FoldBlocks(uint32_t crc, const unsigned char* p, size_t size) {
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  size -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i x = Fold(x0, k3k4, x1);
  x = Fold(x, k3k4, x2);
  x = Fold(x, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x = Fold(x, k3k4, Load(p));

  // 128 bits to 64: the low half times k4, XORed into the high half; then
  // the low 32 bits times k5, XORed into the upper 64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         _mm_set_epi64x(0, kK5), 0x00));

  // Barrett reduction of the 64-bit value to the 32-bit remainder.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

}  // namespace

uint32_t Crc32Pclmul(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  if (size >= 64) {
    const size_t folded = size & ~size_t{15};
    crc = FoldBlocks(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
  return ~Crc32Slice8(crc, bytes, size);
}

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#endif  // defined(__PCLMUL__) && defined(__SSE4_2__)
