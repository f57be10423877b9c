// AVX2 kernel level: 256-bit logical ops, Harley–Seal block popcount, and
// zero-block skipping in set-bit extraction. This translation unit alone is
// compiled with -mavx2 -mpopcnt (src/simd/CMakeLists.txt); the dispatcher
// only hands its table out after a cpuid check. On targets built without
// the ISA the accessor degrades to the scalar table.

#include "simd/simd_isa.h"

#if defined(__AVX2__)

#include <immintrin.h>

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
  for (; i + 64 <= bytes; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i + 32));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i), vec_op(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i + 32),
                        vec_op(a1, b1));
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
// probe) — one extra VPOR per block.
template <typename VecOp, typename WordOp>
uint64_t BinaryIntoAny(void* dst, const void* src, size_t bytes, VecOp vec_op,
                       WordOp word_op) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  __m256i vany = _mm256_setzero_si256();
  uint64_t any = 0;
  size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i + 32));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i + 32));
    const __m256i r0 = vec_op(a0, b0);
    const __m256i r1 = vec_op(a1, b1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i), r0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i + 32), r1);
    vany = _mm256_or_si256(vany, _mm256_or_si256(r0, r1));
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
  const __m128i halves = _mm_or_si128(_mm256_castsi256_si128(vany),
                                      _mm256_extracti128_si256(vany, 1));
  any |= static_cast<uint64_t>(_mm_cvtsi128_si64(halves));
  any |= static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(halves, halves)));
  return any;
}

uint64_t AndInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(
      dst, src, bytes,
      [](__m256i a, __m256i b) { return _mm256_and_si256(a, b); },
      [](uint64_t a, uint64_t b) { return a & b; });
}

void OrInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(
      dst, src, bytes,
      [](__m256i a, __m256i b) { return _mm256_or_si256(a, b); },
      [](uint64_t a, uint64_t b) { return a | b; });
}

void XorInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(
      dst, src, bytes,
      [](__m256i a, __m256i b) { return _mm256_xor_si256(a, b); },
      [](uint64_t a, uint64_t b) { return a ^ b; });
}

uint64_t AndNotInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(
      dst, src, bytes,
      // _mm256_andnot_si256(b, a) computes ~b & a.
      [](__m256i a, __m256i b) { return _mm256_andnot_si256(b, a); },
      [](uint64_t a, uint64_t b) { return a & ~b; });
}

void OrNotMaskInto(void* dst, const void* src, uint64_t mask, size_t bytes) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  BinaryInto(
      dst, src, bytes,
      [vmask](__m256i a, __m256i b) {
        return _mm256_or_si256(a, _mm256_andnot_si256(b, vmask));
      },
      [mask](uint64_t a, uint64_t b) { return a | (~b & mask); });
}

// Per-lane byte popcount via the classic 4-bit table lookup (Muła), then a
// horizontal sum of 8-byte groups.
inline __m256i PopcountLanes(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

// Carry-save adder: (h, l) = full-adder of (a, b, c) per bit position.
inline void Csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline uint64_t HorizontalSum(__m256i v) {
  return static_cast<uint64_t>(_mm256_extract_epi64(v, 0)) +
         static_cast<uint64_t>(_mm256_extract_epi64(v, 1)) +
         static_cast<uint64_t>(_mm256_extract_epi64(v, 2)) +
         static_cast<uint64_t>(_mm256_extract_epi64(v, 3));
}

// Harley–Seal: carry-save adders compress 16 input vectors (512 bytes) per
// round into a ones/twos/fours/eights counter tree, so the expensive
// per-byte popcount lookup only touches the "sixteens" stream — 1/16th of
// the data — plus the residual counters once at the end.
uint64_t Popcount(const void* src, size_t bytes) {
  const auto* s = static_cast<const unsigned char*>(src);
  size_t i = 0;
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  const auto load = [&](size_t offset) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(s + i + offset));
  };
  for (; i + 512 <= bytes; i += 512) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    Csa(twos_a, ones, ones, load(0), load(32));
    Csa(twos_b, ones, ones, load(64), load(96));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, load(128), load(160));
    Csa(twos_b, ones, ones, load(192), load(224));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_a, fours, fours, fours_a, fours_b);
    Csa(twos_a, ones, ones, load(256), load(288));
    Csa(twos_b, ones, ones, load(320), load(352));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, load(384), load(416));
    Csa(twos_b, ones, ones, load(448), load(480));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_b, fours, fours, fours_a, fours_b);
    Csa(sixteens, eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, PopcountLanes(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountLanes(eights), 3));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(PopcountLanes(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(PopcountLanes(twos), 1));
  total = _mm256_add_epi64(total, PopcountLanes(ones));
  uint64_t count = HorizontalSum(total);
  for (; i + 32 <= bytes; i += 32) {
    count += HorizontalSum(PopcountLanes(load(0)));
  }
  for (; i + 8 <= bytes; i += 8) {
    count += static_cast<uint64_t>(_mm_popcnt_u64(LoadWord(s + i)));
  }
  if (i < bytes) {
    count += static_cast<uint64_t>(
        _mm_popcnt_u64(LoadPartialWord(s + i, bytes - i)));
  }
  return count;
}

size_t ExtractSetBits(const uint64_t* words, size_t n, uint64_t base,
                      uint32_t* out) {
  size_t written = 0;
  size_t w = 0;
  // Sparse regions: skip four all-zero words per VPTEST.
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    if (_mm256_testz_si256(v, v)) continue;
    for (size_t j = w; j < w + 4; ++j) {
      const uint64_t word_base = base + 64 * static_cast<uint64_t>(j);
      for (uint64_t word = words[j]; word != 0; word &= word - 1) {
        out[written++] = static_cast<uint32_t>(
            word_base + static_cast<uint64_t>(__builtin_ctzll(word)));
      }
    }
  }
  for (; w < n; ++w) {
    const uint64_t word_base = base + 64 * static_cast<uint64_t>(w);
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      out[written++] = static_cast<uint32_t>(
          word_base + static_cast<uint64_t>(__builtin_ctzll(word)));
    }
  }
  return written;
}

constexpr Kernels kAvx2Kernels = {
    AndInto,  OrInto,         XorInto,     AndNotInto,  OrNotMaskInto,
    Popcount, ExtractSetBits, Crc32Pclmul, Level::kAvx2,
};

}  // namespace

const Kernels& Avx2Kernels() { return kAvx2Kernels; }

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#else  // !defined(__AVX2__)

namespace incdb {
namespace simd {
namespace internal {

// Built without the ISA (non-x86 target): degrade to the scalar table so
// the dispatcher links unconditionally. DetectedLevel() is scalar on such
// targets, so this accessor is only reached via explicit KernelsFor calls.
const Kernels& Avx2Kernels() { return ScalarKernels(); }

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#endif  // defined(__AVX2__)
