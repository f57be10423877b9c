#ifndef INCDB_SIMD_SIMD_H_
#define INCDB_SIMD_SIMD_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace incdb {
namespace simd {

/// Instruction-set dispatch levels, ordered: a higher level strictly
/// extends the lower one. The scalar level is the bit-identical reference
/// implementation every vectorized level is tested against.
///
/// Both vector levels compute CRC-32 with a PCLMULQDQ fold, so each also
/// requires the pclmul cpuid bit: a CPU with SSE4.2 or AVX2 but without
/// carry-less multiply (pre-Westmere parts) is detected as scalar.
enum class Level : int {
  kScalar = 0,  // 8-byte words; slicing-by-8 CRC-32
  kSse2 = 1,    // 128-bit ops; popcount via the hardware POPCNT
                // instruction; PCLMULQDQ CRC-32
  kAvx2 = 2,    // 256-bit ops; Harley–Seal block popcount; PCLMULQDQ CRC-32
};

/// "scalar" / "sse2" / "avx2".
std::string_view LevelToString(Level level);

/// Best level the running CPU supports (cpuid probe; scalar off x86 and on
/// x86 without pclmul).
Level DetectedLevel();

/// The level the kernel table actually dispatches to. Resolved once on
/// first use: DetectedLevel() clamped down by the INCDB_SIMD environment
/// variable ("scalar" | "sse2" | "avx2"). An override above what the CPU
/// supports is clamped to DetectedLevel(), never up.
Level ActiveLevel();

/// Swaps the active kernel table, clamped to DetectedLevel(). Test/bench
/// hook — the runtime equivalent of setting INCDB_SIMD before startup.
void ForceLevelForTesting(Level level);

/// Runtime-dispatched block kernels over packed little-endian 64-bit word
/// buffers. Byte counts need not be multiples of the vector width (or even
/// of 8): every implementation handles the tail scalar, so callers can pass
/// exact payload sizes (e.g. an odd number of 32-bit WAH group words).
/// All levels are bit-identical by contract (tier1-simd property tests).
struct Kernels {
  /// dst &= src over `bytes` bytes. Returns the bitwise OR of the resulting
  /// destination, folded as zero-padded little-endian 64-bit words — zero
  /// iff the written range is now all-zero. The fold is free in-register
  /// and lets AND-fusion early-exit without re-scanning the buffer.
  uint64_t (*and_into)(void* dst, const void* src, size_t bytes);
  /// dst |= src.
  void (*or_into)(void* dst, const void* src, size_t bytes);
  /// dst ^= src.
  void (*xor_into)(void* dst, const void* src, size_t bytes);
  /// dst &= ~src (the fused complement read of AND-negated operands).
  /// Returns the same all-zero fold as and_into.
  uint64_t (*andnot_into)(void* dst, const void* src, size_t bytes);
  /// dst |= ~src & mask, `mask` replicated every 8 bytes. The mask keeps
  /// complemented WAH group words from leaking bits into the fill-flag
  /// positions (callers pass the replicated kFullLiteral pattern).
  void (*ornot_mask_into)(void* dst, const void* src, uint64_t mask,
                          size_t bytes);
  /// Total set bits over `bytes` bytes (Harley–Seal at the AVX2 level).
  uint64_t (*popcount)(const void* src, size_t bytes);
  /// Appends `base + bit index` of every set bit of words[0..n) to `out`
  /// (caller guarantees room for the full popcount); returns the number
  /// written. Indices ascend; bit i of words[w] is index base + 64*w + i.
  size_t (*extract_set_bits)(const uint64_t* words, size_t n, uint64_t base,
                             uint32_t* out);
  /// Standard CRC-32 (reflected polynomial 0xEDB88320, initial value and
  /// final xor 0xFFFFFFFF) of `size` bytes at any alignment; `seed` is the
  /// result of a previous call to continue a running checksum (0 to
  /// start). Scalar: slicing-by-8. sse2/avx2: a four-lane PCLMULQDQ fold,
  /// 64 bytes per step, with slicing-by-8 for inputs under 64 bytes and
  /// the final under-16-byte tail.
  uint32_t (*crc32)(const void* data, size_t size, uint32_t seed);
  Level level;
};

/// The table selected at startup (see ActiveLevel()).
const Kernels& ActiveKernels();

/// The table for a specific level, clamped to DetectedLevel() so a caller
/// can never obtain kernels the CPU cannot execute.
const Kernels& KernelsFor(Level level);

/// Calls `fn(base + i)` for every set bit of `word`, ascending. The inline
/// companion of Kernels::extract_set_bits for callback-shaped consumers:
/// an all-ones word (a decoded 1-fill chunk) is emitted as a plain counted
/// loop instead of 64 find-first-set iterations.
template <typename Fn>
inline void ForEachSetBitInWord(uint64_t word, uint64_t base, Fn&& fn) {
  if (word == ~uint64_t{0}) {
    for (int i = 0; i < 64; ++i) fn(base + static_cast<uint64_t>(i));
    return;
  }
  while (word != 0) {
    fn(base + static_cast<uint64_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

}  // namespace simd
}  // namespace incdb

#endif  // INCDB_SIMD_SIMD_H_
