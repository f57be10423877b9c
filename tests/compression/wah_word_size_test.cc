// Typed tests running the WAH contract over both word widths, plus the
// 32-vs-64 trade-off assertions behind the word-size ablation bench.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

template <typename WordT>
class WahWordSizeTest : public ::testing::Test {
 public:
  using Wah = BasicWahBitVector<WordT>;
};

using WordTypes = ::testing::Types<uint32_t, uint64_t>;
TYPED_TEST_SUITE(WahWordSizeTest, WordTypes);

BitVector RandomRuns(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  uint64_t i = 0;
  while (i < n) {
    const bool bit = rng.Bernoulli(density);
    const uint64_t run = 1 + static_cast<uint64_t>(rng.UniformInt(0, 90));
    for (uint64_t j = 0; j < run && i < n; ++j, ++i) {
      if (bit) bits.Set(i);
    }
  }
  return bits;
}

TYPED_TEST(WahWordSizeTest, GroupBitsMatchWordWidth) {
  EXPECT_EQ(TestFixture::Wah::kGroupBits,
            static_cast<int>(sizeof(TypeParam) * 8) - 1);
}

TYPED_TEST(WahWordSizeTest, CompressDecompressIdentity) {
  Rng rng(42);
  for (uint64_t n : {0u, 1u, 31u, 63u, 64u, 127u, 1000u, 50000u}) {
    for (double density : {0.0, 0.005, 0.5, 1.0}) {
      const BitVector dense = RandomRuns(rng, n, density);
      const auto wah = TestFixture::Wah::Compress(dense);
      EXPECT_TRUE(wah.Decompress() == dense) << "n=" << n << " d=" << density;
      EXPECT_EQ(wah.Count(), dense.Count());
    }
  }
}

TYPED_TEST(WahWordSizeTest, OpsMatchVerbatim) {
  Rng rng(43);
  for (uint64_t n : {62u, 63u, 126u, 5000u}) {
    const BitVector a = RandomRuns(rng, n, 0.2);
    const BitVector b = RandomRuns(rng, n, 0.8);
    const auto wa = TestFixture::Wah::Compress(a);
    const auto wb = TestFixture::Wah::Compress(b);
    EXPECT_TRUE(wa.And(wb).Decompress() == And(a, b));
    EXPECT_TRUE(wa.Or(wb).Decompress() == Or(a, b));
    EXPECT_TRUE(wa.Xor(wb).Decompress() == Xor(a, b));
    EXPECT_TRUE(wa.AndNot(wb).Decompress() == And(a, Not(b)));
    EXPECT_TRUE(wa.Not().Decompress() == Not(a));
  }
}

TYPED_TEST(WahWordSizeTest, SerializationRoundTrip) {
  Rng rng(44);
  const BitVector dense = RandomRuns(rng, 10000, 0.05);
  const auto original = TestFixture::Wah::Compress(dense);
  // The store's wire form: code words reopened in place, then validated.
  const std::vector<TypeParam> words(original.code_words().begin(),
                                     original.code_words().end());
  const auto loaded = TestFixture::Wah::FromBorrowed(
      words, original.active_word(), original.active_bits(), original.size());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().ValidateStructure().ok());
  EXPECT_TRUE(loaded.value() == original);
  EXPECT_TRUE(loaded.value().Decompress() == dense);
}

TYPED_TEST(WahWordSizeTest, IncompressibleRatioIsWordOverGroup) {
  BitVector dense(64 * 31 * 100);
  for (uint64_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  const auto wah = TestFixture::Wah::Compress(dense);
  const double expected = static_cast<double>(sizeof(TypeParam) * 8) /
                          static_cast<double>(sizeof(TypeParam) * 8 - 1);
  EXPECT_NEAR(wah.CompressionRatio(), expected, 0.02);
}

// The ablation trade-off: on very sparse bitmaps the 32-bit variant
// compresses better (finer 31-bit run granularity), never worse than half
// as well; the 64-bit variant's incompressible ceiling is lower
// (64/63 < 32/31).
TEST(WahWordSizeTradeoffTest, SparseFavorsNarrowWords) {
  BitVector dense(1000000);
  for (uint64_t i = 0; i < dense.size(); i += 617) dense.Set(i);
  const auto wah32 = WahBitVector::Compress(dense);
  const auto wah64 = Wah64BitVector::Compress(dense);
  EXPECT_LT(wah32.SizeInBytes(), wah64.SizeInBytes());
  EXPECT_TRUE(wah32.Decompress() == wah64.Decompress());
}

TEST(WahWordSizeTradeoffTest, DenseRandomFavorsWideWordsSlightly) {
  Rng rng(45);
  BitVector dense(1000000);
  for (uint64_t i = 0; i < dense.size(); ++i) {
    if (rng.Bernoulli(0.5)) dense.Set(i);
  }
  const auto wah32 = WahBitVector::Compress(dense);
  const auto wah64 = Wah64BitVector::Compress(dense);
  // 32/31 vs 64/63 overhead: the wide variant wins on incompressible data.
  EXPECT_LT(wah64.SizeInBytes(), wah32.SizeInBytes());
}

}  // namespace
}  // namespace incdb
