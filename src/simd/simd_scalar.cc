// Scalar kernel level: the bit-identical reference implementation the
// vectorized levels are property-tested against, and the fallback on CPUs
// (or builds) without SSE4.2/AVX2/PCLMUL. Compiled with the project's
// baseline flags only — no ISA options — so it runs anywhere.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/simd_isa.h"

namespace incdb {
namespace simd {
namespace internal {
namespace {

template <typename Op>
void BinaryInto(void* dst, const void* src, size_t bytes, Op op) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    StoreWord(d + i, op(LoadWord(d + i), LoadWord(s + i)));
  }
  if (i < bytes) {
    const size_t tail = bytes - i;
    StorePartialWord(d + i,
                     op(LoadPartialWord(d + i, tail),
                        LoadPartialWord(s + i, tail)),
                     tail);
  }
}

// BinaryInto that also folds every stored word into an OR accumulator and
// returns it (the and_into/andnot_into all-zero probe).
template <typename Op>
uint64_t BinaryIntoAny(void* dst, const void* src, size_t bytes, Op op) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  uint64_t any = 0;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const uint64_t r = op(LoadWord(d + i), LoadWord(s + i));
    StoreWord(d + i, r);
    any |= r;
  }
  if (i < bytes) {
    const size_t tail = bytes - i;
    const uint64_t r =
        op(LoadPartialWord(d + i, tail), LoadPartialWord(s + i, tail));
    StorePartialWord(d + i, r, tail);
    any |= r;
  }
  return any;
}

uint64_t AndInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(dst, src, bytes,
                       [](uint64_t a, uint64_t b) { return a & b; });
}

void OrInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(dst, src, bytes, [](uint64_t a, uint64_t b) { return a | b; });
}

void XorInto(void* dst, const void* src, size_t bytes) {
  BinaryInto(dst, src, bytes, [](uint64_t a, uint64_t b) { return a ^ b; });
}

uint64_t AndNotInto(void* dst, const void* src, size_t bytes) {
  return BinaryIntoAny(dst, src, bytes,
                       [](uint64_t a, uint64_t b) { return a & ~b; });
}

void OrNotMaskInto(void* dst, const void* src, uint64_t mask, size_t bytes) {
  BinaryInto(dst, src, bytes,
             [mask](uint64_t a, uint64_t b) { return a | (~b & mask); });
}

uint64_t Popcount(const void* src, size_t bytes) {
  const auto* s = static_cast<const unsigned char*>(src);
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    count += static_cast<uint64_t>(std::popcount(LoadWord(s + i)));
  }
  if (i < bytes) {
    count += static_cast<uint64_t>(
        std::popcount(LoadPartialWord(s + i, bytes - i)));
  }
  return count;
}

size_t ExtractSetBits(const uint64_t* words, size_t n, uint64_t base,
                      uint32_t* out) {
  size_t written = 0;
  for (size_t w = 0; w < n; ++w) {
    const uint64_t word_base = base + 64 * static_cast<uint64_t>(w);
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      out[written++] = static_cast<uint32_t>(
          word_base + static_cast<uint64_t>(std::countr_zero(word)));
    }
  }
  return written;
}

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is
// the classic byte table, and row k advances a byte's remainder through k
// further zero bytes, so eight lookups consume one 8-byte word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return ~Crc32Slice8(~seed, data, size);
}

constexpr Kernels kScalarKernels = {
    AndInto,  OrInto,         XorInto, AndNotInto,    OrNotMaskInto,
    Popcount, ExtractSetBits, Crc32,   Level::kScalar,
};

}  // namespace

uint32_t Crc32Slice8(uint32_t crc, const void* data, size_t size) {
  // The word step needs the first input byte in the word's low byte.
  static_assert(std::endian::native == std::endian::little);
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint64_t word = LoadWord(bytes) ^ crc;
    crc = kCrcTables[7][word & 0xFFu] ^ kCrcTables[6][(word >> 8) & 0xFFu] ^
          kCrcTables[5][(word >> 16) & 0xFFu] ^
          kCrcTables[4][(word >> 24) & 0xFFu] ^
          kCrcTables[3][(word >> 32) & 0xFFu] ^
          kCrcTables[2][(word >> 40) & 0xFFu] ^
          kCrcTables[1][(word >> 48) & 0xFFu] ^ kCrcTables[0][word >> 56];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kCrcTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc;
}

const Kernels& ScalarKernels() { return kScalarKernels; }

}  // namespace internal
}  // namespace simd
}  // namespace incdb
