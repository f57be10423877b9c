// Bit-identity tests for the runtime-dispatched SIMD kernel layer: every
// level the running CPU supports must produce byte-for-byte the output of
// an independent reference implementation, for every kernel, at byte counts
// that exercise full vector blocks, partial blocks, whole-word tails and
// sub-word tails (odd uint32 WAH group counts land on 4-byte tails).
// crc32 is checked against a byte-at-a-time CRC-32 over every length and
// start offset that reaches its vector folds and scalar tails.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "simd/simd.h"

namespace incdb {
namespace simd {
namespace {

// Levels the running CPU can actually execute.
std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (DetectedLevel() >= Level::kSse2) levels.push_back(Level::kSse2);
  if (DetectedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Byte counts spanning every tail shape: empty, sub-word, word-exact,
// vector-exact (16/32/64), one-past, Harley-Seal block (512) and beyond.
const size_t kByteCounts[] = {0,  1,  3,   4,   7,   8,   9,   12,  16,
                              17, 31, 32,  33,  60,  63,  64,  65,  100,
                              255, 256, 257, 511, 512, 513, 1000, 4096, 4100};

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return bytes;
}

// Reference ops, one byte at a time — deliberately nothing like the word- or
// vector-blocked kernels under test.
uint8_t RefAnd(uint8_t a, uint8_t b) { return a & b; }
uint8_t RefOr(uint8_t a, uint8_t b) { return a | b; }
uint8_t RefXor(uint8_t a, uint8_t b) { return a ^ b; }
uint8_t RefAndNot(uint8_t a, uint8_t b) { return a & ~b; }

using ByteOp = uint8_t (*)(uint8_t, uint8_t);

// Expected value of the and_into/andnot_into all-zero probe: the OR of the
// result interpreted as zero-padded little-endian 64-bit words.
uint64_t RefAnyFold(const std::vector<uint8_t>& result, size_t bytes) {
  uint64_t any = 0;
  for (size_t i = 0; i < bytes; ++i) {
    any |= uint64_t{result[i]} << (8 * (i % 8));
  }
  return any;
}

template <typename KernelFn>
void CheckBinary(const Kernels& kernels, KernelFn kernel, ByteOp ref,
                 bool returns_any, const char* name) {
  Rng rng(20260808);
  for (size_t bytes : kByteCounts) {
    std::vector<uint8_t> dst = RandomBytes(rng, bytes + 16);  // +guard tail
    const std::vector<uint8_t> src = RandomBytes(rng, bytes + 16);
    std::vector<uint8_t> expected = dst;
    for (size_t i = 0; i < bytes; ++i) {
      expected[i] = ref(dst[i], src[i]);
    }
    if constexpr (std::is_same_v<decltype(kernel(nullptr, nullptr, 0)),
                                 uint64_t>) {
      const uint64_t any = kernel(dst.data(), src.data(), bytes);
      if (returns_any) {
        EXPECT_EQ(any, RefAnyFold(expected, bytes))
            << name << " level=" << LevelToString(kernels.level)
            << " bytes=" << bytes;
      }
    } else {
      kernel(dst.data(), src.data(), bytes);
    }
    EXPECT_EQ(dst, expected)
        << name << " level=" << LevelToString(kernels.level)
        << " bytes=" << bytes;
  }
}

TEST(SimdKernels, BinaryOpsMatchReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    EXPECT_EQ(k.level, level);
    CheckBinary(k, k.and_into, RefAnd, /*returns_any=*/true, "and_into");
    CheckBinary(k, k.or_into, RefOr, /*returns_any=*/false, "or_into");
    CheckBinary(k, k.xor_into, RefXor, /*returns_any=*/false, "xor_into");
    CheckBinary(k, k.andnot_into, RefAndNot, /*returns_any=*/true,
                "andnot_into");
  }
}

TEST(SimdKernels, AndIntoZeroProbeIsZeroOnEmptyResult) {
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t bytes : kByteCounts) {
      Rng rng(3 + bytes);
      std::vector<uint8_t> dst = RandomBytes(rng, bytes);
      const std::vector<uint8_t> zeros(bytes, 0x00);
      EXPECT_EQ(k.and_into(dst.data(), zeros.data(), bytes), 0u)
          << "level=" << LevelToString(level) << " bytes=" << bytes;
      std::vector<uint8_t> dst2 = RandomBytes(rng, bytes);
      const std::vector<uint8_t> copy = dst2;
      EXPECT_EQ(k.andnot_into(dst2.data(), copy.data(), bytes), 0u)
          << "level=" << LevelToString(level) << " bytes=" << bytes;
    }
  }
}

TEST(SimdKernels, OrNotMaskMatchesReferenceAtEveryLevel) {
  // Both WAH mask shapes: the 63-bit and the replicated 31-bit literal mask.
  const uint64_t masks[] = {0x7FFFFFFFFFFFFFFFull, 0x7FFFFFFF7FFFFFFFull,
                            0xFFFFFFFFFFFFFFFFull, 0x0123456789ABCDEFull};
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    Rng rng(42);
    for (uint64_t mask : masks) {
      for (size_t bytes : kByteCounts) {
        std::vector<uint8_t> dst = RandomBytes(rng, bytes);
        const std::vector<uint8_t> src = RandomBytes(rng, bytes);
        std::vector<uint8_t> expected = dst;
        for (size_t i = 0; i < bytes; ++i) {
          const uint8_t mask_byte =
              static_cast<uint8_t>(mask >> (8 * (i % 8)));
          expected[i] =
              static_cast<uint8_t>(dst[i] | (~src[i] & mask_byte));
        }
        k.ornot_mask_into(dst.data(), src.data(), mask, bytes);
        EXPECT_EQ(dst, expected)
            << "level=" << LevelToString(level) << " mask=" << mask
            << " bytes=" << bytes;
      }
    }
  }
}

TEST(SimdKernels, PopcountMatchesReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    Rng rng(7);
    for (size_t bytes : kByteCounts) {
      const std::vector<uint8_t> buf = RandomBytes(rng, bytes);
      uint64_t expected = 0;
      for (uint8_t b : buf) {
        for (int i = 0; i < 8; ++i) expected += (b >> i) & 1;
      }
      EXPECT_EQ(k.popcount(buf.data(), bytes), expected)
          << "level=" << LevelToString(level) << " bytes=" << bytes;
    }
    // All-ones and all-zeros stress the Harley-Seal carry tree.
    const std::vector<uint8_t> ones(4096, 0xFF);
    EXPECT_EQ(k.popcount(ones.data(), ones.size()), uint64_t{4096} * 8);
    const std::vector<uint8_t> zeros(4096, 0x00);
    EXPECT_EQ(k.popcount(zeros.data(), zeros.size()), uint64_t{0});
  }
}

TEST(SimdKernels, ExtractSetBitsMatchesReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    Rng rng(99);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                     size_t{64}, size_t{100}}) {
      std::vector<uint64_t> words(n);
      for (auto& w : words) {
        switch (rng.UniformInt(0, 3)) {
          case 0: w = 0; break;                       // zero-skip path
          case 1: w = ~uint64_t{0}; break;            // dense word
          default: w = rng.Next() & rng.Next(); break;  // sparse word
        }
      }
      std::vector<uint32_t> expected;
      for (size_t wi = 0; wi < n; ++wi) {
        for (int b = 0; b < 64; ++b) {
          if ((words[wi] >> b) & 1) {
            expected.push_back(static_cast<uint32_t>(1000 + 64 * wi + b));
          }
        }
      }
      std::vector<uint32_t> out(expected.size() + 1, 0xDEAD);
      const size_t written =
          k.extract_set_bits(words.data(), n, /*base=*/1000, out.data());
      ASSERT_EQ(written, expected.size())
          << "level=" << LevelToString(level) << " n=" << n;
      out.resize(written);
      EXPECT_EQ(out, expected) << "level=" << LevelToString(level);
    }
  }
}

// The CRC-32 oracle: one table lookup per byte, the loop the store used
// before the dispatched kernels. `crc` is the raw register (the public
// value inverted), so a running oracle gives every prefix's CRC in one pass.
uint32_t RefCrc32Step(uint32_t crc, uint8_t byte) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
      }
      t[i] = c;
    }
    return t;
  }();
  return (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
}

uint32_t RefCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) crc = RefCrc32Step(crc, data[i]);
  return ~crc;
}

TEST(SimdKernels, Crc32MatchesByteLoopForEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kOffsets = 16;
  Rng rng(0xC3C32);
  const std::vector<uint8_t> buf = RandomBytes(rng, kMaxLength + kOffsets);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (uint32_t seed : {0u, 0x9E3779B9u}) {
      for (size_t offset = 0; offset < kOffsets; ++offset) {
        const uint8_t* data = buf.data() + offset;
        uint32_t running = ~seed;  // oracle register over data[0, length)
        for (size_t length = 0; length <= kMaxLength; ++length) {
          if (length > 0) running = RefCrc32Step(running, data[length - 1]);
          const uint32_t got = k.crc32(data, length, seed);
          if (got != ~running) {
            ADD_FAILURE() << "level=" << LevelToString(level)
                          << " seed=" << seed << " offset=" << offset
                          << " length=" << length;
            return;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Crc32MatchesByteLoopOnLargeBuffers) {
  Rng rng(4242);
  for (size_t size : {size_t{64 * 1024 + 7}, size_t{1024 * 1024 + 13}}) {
    const std::vector<uint8_t> buf = RandomBytes(rng, size);
    const uint32_t expected = RefCrc32(buf.data(), size, 0);
    for (Level level : AvailableLevels()) {
      EXPECT_EQ(KernelsFor(level).crc32(buf.data(), size, 0), expected)
          << "level=" << LevelToString(level) << " size=" << size;
    }
  }
}

TEST(SimdKernels, Crc32ChainsThroughTheSeed) {
  Rng rng(77);
  const std::vector<uint8_t> buf = RandomBytes(rng, 3000);
  const uint32_t whole = RefCrc32(buf.data(), buf.size(), 0);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t split : {size_t{0}, size_t{1}, size_t{15}, size_t{63},
                         size_t{64}, size_t{65}, size_t{1000}, size_t{2999},
                         size_t{3000}}) {
      const uint32_t a = k.crc32(buf.data(), split, 0);
      EXPECT_EQ(k.crc32(buf.data() + split, buf.size() - split, a), whole)
          << "level=" << LevelToString(level) << " split=" << split;
    }
  }
}

TEST(SimdKernels, Crc32KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  for (Level level : AvailableLevels()) {
    EXPECT_EQ(KernelsFor(level).crc32(kCheck.data(), kCheck.size(), 0),
              0xCBF43926u)
        << "level=" << LevelToString(level);
  }
}

TEST(SimdKernels, ForEachSetBitInWordCoversAllShapes) {
  auto collect = [](uint64_t word, uint64_t base) {
    std::vector<uint64_t> got;
    ForEachSetBitInWord(word, base, [&](uint64_t i) { got.push_back(i); });
    return got;
  };
  EXPECT_TRUE(collect(0, 5).empty());
  EXPECT_EQ(collect(0b1011, 10), (std::vector<uint64_t>{10, 11, 13}));
  const std::vector<uint64_t> all = collect(~uint64_t{0}, 100);
  ASSERT_EQ(all.size(), 64u);
  EXPECT_EQ(all.front(), 100u);
  EXPECT_EQ(all.back(), 163u);
}

TEST(SimdDispatch, ActiveNeverExceedsDetectedAndForceClamps) {
  EXPECT_LE(static_cast<int>(ActiveLevel()),
            static_cast<int>(DetectedLevel()));
  // Force every level (requests above the CPU's ceiling clamp down) and
  // verify table and level agree; then restore.
  const Level original = ActiveLevel();
  for (Level request : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    ForceLevelForTesting(request);
    const Level expect =
        static_cast<int>(request) <= static_cast<int>(DetectedLevel())
            ? request
            : DetectedLevel();
    EXPECT_EQ(ActiveLevel(), expect);
    EXPECT_EQ(ActiveKernels().level, expect);
  }
  ForceLevelForTesting(original);
  EXPECT_EQ(ActiveLevel(), original);
}

// Both vector levels run the PCLMULQDQ CRC-32 fold, so the dispatcher
// must never pick one on a CPU without carry-less multiply.
TEST(SimdDispatch, VectorLevelsRequirePclmul) {
#if defined(__x86_64__) || defined(__i386__)
  if (ActiveLevel() > Level::kScalar) {
    EXPECT_TRUE(__builtin_cpu_supports("pclmul"));
  }
  if (DetectedLevel() > Level::kScalar) {
    EXPECT_TRUE(__builtin_cpu_supports("pclmul"));
  }
#else
  EXPECT_EQ(DetectedLevel(), Level::kScalar);
#endif
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_EQ(LevelToString(Level::kScalar), "scalar");
  EXPECT_EQ(LevelToString(Level::kSse2), "sse2");
  EXPECT_EQ(LevelToString(Level::kAvx2), "avx2");
}

}  // namespace
}  // namespace simd
}  // namespace incdb
