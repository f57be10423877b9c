#ifndef INCDB_SIMD_SIMD_ISA_H_
#define INCDB_SIMD_SIMD_ISA_H_

#include <cstdint>
#include <cstring>

#include "simd/simd.h"

// Internal seam between the dispatcher and the per-ISA translation units.
// Each ISA's kernels live in their own .cc compiled with that ISA's flags
// (-msse4.2 / -mavx2 / -mpclmul); this header stays intrinsic-free so
// including it never leaks ISA requirements into other translation units.
// When a TU is built without its ISA (non-x86 targets), its accessor
// returns the scalar table, so the dispatcher can link unconditionally.

namespace incdb {
namespace simd {
namespace internal {

const Kernels& ScalarKernels();
const Kernels& Sse2Kernels();
const Kernels& Avx2Kernels();

/// Slicing-by-8 CRC-32 over the raw remainder register: `crc` in and out
/// is the register itself, without Kernels::crc32's 0xFFFFFFFF pre- and
/// post-inversion. The scalar level's crc32, and the PCLMULQDQ fold's
/// path for short inputs and tails (simd_scalar.cc).
uint32_t Crc32Slice8(uint32_t crc, const void* data, size_t size);

/// Kernels::crc32 of the sse2 and avx2 levels: the PCLMULQDQ fold
/// (simd_pclmul.cc, the only TU built with -mpclmul).
uint32_t Crc32Pclmul(const void* data, size_t size, uint32_t seed);

/// Unaligned, size-exact word I/O for the sub-8-byte buffer tails every
/// kernel level shares. memcpy keeps them defined behavior on any
/// alignment; at -O1+ both compile to plain moves.
inline uint64_t LoadPartialWord(const void* src, size_t bytes) {
  uint64_t word = 0;
  std::memcpy(&word, src, bytes);
  return word;
}

inline void StorePartialWord(void* dst, uint64_t word, size_t bytes) {
  std::memcpy(dst, &word, bytes);
}

inline uint64_t LoadWord(const void* src) {
  uint64_t word;
  std::memcpy(&word, src, sizeof(word));
  return word;
}

inline void StoreWord(void* dst, uint64_t word) {
  std::memcpy(dst, &word, sizeof(word));
}

}  // namespace internal
}  // namespace simd
}  // namespace incdb

#endif  // INCDB_SIMD_SIMD_ISA_H_
