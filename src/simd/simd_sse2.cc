// SSE4.2 kernel level: 128-bit logical ops plus the hardware POPCNT
// instruction. This translation unit alone is compiled with -msse4.2 (see
// src/simd/CMakeLists.txt); the dispatcher only hands its table out after
// a cpuid check, so nothing here executes on a CPU without the ISA. On
// targets built without the ISA the accessor degrades to the scalar table.

#include "simd/simd_isa.h"

#if defined(__SSE4_2__)

#include <emmintrin.h>
#include <nmmintrin.h>

#include <cstddef>
#include <cstdint>

namespace incdb {
namespace simd {
namespace internal {
namespace {

template <typename VecOp, typename WordOp>
void BinaryInto(void* dst, const void* src, size_t bytes, VecOp vec_op,
                WordOp word_op) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    const __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 16));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), vec_op(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 16), vec_op(a1, b1));
  }
  for (; i + 8 <= bytes; i += 8) {
    StoreWord(d + i, word_op(LoadWord(d + i), LoadWord(s + i)));
  }
  if (i < bytes) {
    const size_t tail = bytes - i;
    StorePartialWord(d + i,
                     word_op(LoadPartialWord(d + i, tail),
                             LoadPartialWord(s + i, tail)),
                     tail);
  }
}

// BinaryInto that also folds every stored block into an OR accumulator and
// returns it collapsed to 64 bits (the and_into/andnot_into all-zero
// probe) — one extra POR per block.
template <typename VecOp, typename WordOp>
uint64_t BinaryIntoAny(void* dst, const void* src, size_t bytes, VecOp vec_op,
                       WordOp word_op) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  __m128i vany = _mm_setzero_si128();
  uint64_t any = 0;
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    const __m128i a1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 16));
    const __m128i b1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + 16));
    const __m128i r0 = vec_op(a0, b0);
    const __m128i r1 = vec_op(a1, b1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), r0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 16), r1);
    vany = _mm_or_si128(vany, _mm_or_si128(r0, r1));
  }
  for (; i + 8 <= bytes; i += 8) {
    const uint64_t r = word_op(LoadWord(d + i), LoadWord(s + i));
    StoreWord(d + i, r);
    any |= r;
  }
  if (i < bytes) {
    const size_t tail = bytes - i;
    const uint64_t r =
        word_op(LoadPartialWord(d + i, tail), LoadPartialWord(s + i, tail));
    StorePartialWord(d + i, r, tail);
    any |= r;
  }
  any |= static_cast<uint64_t>(_mm_cvtsi128_si64(vany));
  any |= static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(vany, vany)));
  return any;
}

uint64_t AndInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(
      dst, src, bytes,
      [](__m128i a, __m128i b) { return _mm_and_si128(a, b); },
      [](uint64_t a, uint64_t b) { return a & b; });
}

void OrInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(
      dst, src, bytes,
      [](__m128i a, __m128i b) { return _mm_or_si128(a, b); },
      [](uint64_t a, uint64_t b) { return a | b; });
}

void XorInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(
      dst, src, bytes,
      [](__m128i a, __m128i b) { return _mm_xor_si128(a, b); },
      [](uint64_t a, uint64_t b) { return a ^ b; });
}

uint64_t AndNotInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(
      dst, src, bytes,
      // _mm_andnot_si128(b, a) computes ~b & a.
      [](__m128i a, __m128i b) { return _mm_andnot_si128(b, a); },
      [](uint64_t a, uint64_t b) { return a & ~b; });
}

void OrNotMaskInto(void* dst, const void* src, uint64_t mask, size_t bytes) {
  const __m128i vmask = _mm_set1_epi64x(static_cast<long long>(mask));
  BinaryInto(
      dst, src, bytes,
      [vmask](__m128i a, __m128i b) {
        return _mm_or_si128(a, _mm_andnot_si128(b, vmask));
      },
      [mask](uint64_t a, uint64_t b) { return a | (~b & mask); });
}

uint64_t Popcount(const void* src, size_t bytes) {
  const auto* s = static_cast<const unsigned char*>(src);
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    c0 += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i)));
    c1 += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i + 8)));
    c2 += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i + 16)));
    c3 += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i + 24)));
  }
  for (; i + 8 <= bytes; i += 8) {
    c0 += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i)));
  }
  if (i < bytes) {
    c0 += static_cast<uint64_t>(
        _mm_popcnt_u64(LoadPartialWord(s + i, bytes - i)));
  }
  return c0 + c1 + c2 + c3;
}

size_t ExtractSetBits(const uint64_t* words, size_t n, uint64_t base,
                      uint32_t* out) {
  size_t written = 0;
  for (size_t w = 0; w < n; ++w) {
    const uint64_t word_base = base + 64 * static_cast<uint64_t>(w);
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      const auto bit =
          static_cast<uint64_t>(__builtin_ctzll(word));
      out[written++] = static_cast<uint32_t>(word_base + bit);
    }
  }
  return written;
}

constexpr Kernels kSse2Kernels = {
    AndInto,  OrInto,         XorInto,     AndNotInto,  OrNotMaskInto,
    Popcount, ExtractSetBits, Crc32Pclmul, Level::kSse2,
};

}  // namespace

const Kernels& Sse2Kernels() { return kSse2Kernels; }

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#else  // !defined(__SSE4_2__)

namespace incdb {
namespace simd {
namespace internal {

// Built without the ISA (non-x86 target): degrade to the scalar table so
// the dispatcher links unconditionally. DetectedLevel() is scalar on such
// targets, so this accessor is only reached via explicit KernelsFor calls.
const Kernels& Sse2Kernels() { return ScalarKernels(); }

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#endif  // defined(__SSE4_2__)
