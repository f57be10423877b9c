#include "compression/wah_bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace incdb {
namespace {

TEST(WahBitVectorTest, EmptyByDefault) {
  WahBitVector wah;
  EXPECT_EQ(wah.size(), 0u);
  EXPECT_TRUE(wah.empty());
  EXPECT_EQ(wah.Count(), 0u);
  EXPECT_EQ(wah.SizeInBytes(), 0u);
}

TEST(WahBitVectorTest, AppendBitRoundTrip) {
  WahBitVector wah;
  for (int i = 0; i < 100; ++i) wah.AppendBit(i % 7 == 0);
  EXPECT_EQ(wah.size(), 100u);
  const BitVector dense = wah.Decompress();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dense.Get(i), i % 7 == 0) << i;
}

TEST(WahBitVectorTest, FillFactory) {
  const WahBitVector zeros = WahBitVector::Fill(1000, false);
  EXPECT_EQ(zeros.size(), 1000u);
  EXPECT_EQ(zeros.Count(), 0u);
  const WahBitVector ones = WahBitVector::Fill(1000, true);
  EXPECT_EQ(ones.Count(), 1000u);
  // A long fill should compress to very few words.
  EXPECT_LE(ones.SizeInBytes(), 8u);
}

TEST(WahBitVectorTest, AppendRunMergesFills) {
  WahBitVector wah;
  wah.AppendRun(false, 31 * 10);
  wah.AppendRun(false, 31 * 5);
  EXPECT_EQ(wah.size(), 31u * 15);
  EXPECT_EQ(wah.NumWords(), 1u);  // one merged fill word
}

TEST(WahBitVectorTest, CompressDecompressIdentitySmall) {
  const BitVector dense = BitVector::FromString("0001000010").value();
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_TRUE(wah.Decompress() == dense);
  EXPECT_EQ(wah.Count(), 2u);
}

TEST(WahBitVectorTest, CompressExactly31Bits) {
  BitVector dense(31);
  dense.Set(0);
  dense.Set(30);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.size(), 31u);
  EXPECT_TRUE(wah.Decompress() == dense);
}

TEST(WahBitVectorTest, CompressAllZerosIsTiny) {
  BitVector dense(31 * 1000);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.SizeInBytes(), 4u);  // a single fill word
  EXPECT_EQ(wah.Count(), 0u);
}

TEST(WahBitVectorTest, CompressAllOnesIsTiny) {
  BitVector dense(31 * 1000, true);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.SizeInBytes(), 4u);
  EXPECT_EQ(wah.Count(), 31u * 1000);
}

TEST(WahBitVectorTest, GetMatchesDecompress) {
  WahBitVector wah;
  wah.AppendRun(false, 100);
  wah.AppendRun(true, 50);
  wah.AppendBit(false);
  wah.AppendBit(true);
  const BitVector dense = wah.Decompress();
  for (uint64_t i = 0; i < wah.size(); ++i) {
    EXPECT_EQ(wah.Get(i), dense.Get(i)) << i;
  }
}

TEST(WahBitVectorTest, CountOverMixedContent) {
  WahBitVector wah;
  wah.AppendRun(true, 62);    // two 1-fill groups
  wah.AppendBit(true);
  wah.AppendBit(false);
  wah.AppendRun(false, 93);   // fills + partial
  EXPECT_EQ(wah.Count(), 63u);
}

TEST(WahBitVectorTest, AndBasic) {
  WahBitVector a;
  WahBitVector b;
  for (int i = 0; i < 200; ++i) {
    a.AppendBit(i % 2 == 0);
    b.AppendBit(i % 3 == 0);
  }
  const WahBitVector c = a.And(b);
  EXPECT_EQ(c.size(), 200u);
  const BitVector dense = c.Decompress();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dense.Get(i), i % 6 == 0) << i;
  }
}

TEST(WahBitVectorTest, OrOfComplementaryFills) {
  WahBitVector a;
  a.AppendRun(true, 310);
  a.AppendRun(false, 310);
  WahBitVector b;
  b.AppendRun(false, 310);
  b.AppendRun(true, 310);
  const WahBitVector c = a.Or(b);
  EXPECT_EQ(c.Count(), 620u);
  EXPECT_LE(c.SizeInBytes(), 8u);  // merges back into one fill
}

TEST(WahBitVectorTest, XorSelfIsZero) {
  WahBitVector a;
  for (int i = 0; i < 500; ++i) a.AppendBit(i % 5 == 0);
  const WahBitVector z = a.Xor(a);
  EXPECT_EQ(z.Count(), 0u);
  EXPECT_EQ(z.size(), 500u);
}

TEST(WahBitVectorTest, AndNot) {
  WahBitVector a = WahBitVector::Fill(100, true);
  WahBitVector b;
  for (int i = 0; i < 100; ++i) b.AppendBit(i < 40);
  const WahBitVector c = a.AndNot(b);
  EXPECT_EQ(c.Count(), 60u);
  EXPECT_FALSE(c.Get(0));
  EXPECT_TRUE(c.Get(99));
}

TEST(WahBitVectorTest, NotInvolution) {
  WahBitVector a;
  for (int i = 0; i < 137; ++i) a.AppendBit(i % 11 == 0);
  EXPECT_TRUE(a.Not().Not() == a);
  EXPECT_EQ(a.Not().Count(), 137u - a.Count());
}

TEST(WahBitVectorTest, NotOnFills) {
  const WahBitVector zeros = WahBitVector::Fill(310, false);
  const WahBitVector inverted = zeros.Not();
  EXPECT_EQ(inverted.Count(), 310u);
  EXPECT_LE(inverted.SizeInBytes(), 4u);
}

TEST(WahBitVectorTest, CompressionRatioOfSparseVector) {
  // Paper §4.2: a 1,000,000-bit column with ~1% density compresses to
  // roughly 0.47 of its verbatim size under WAH.
  BitVector dense(1000000);
  for (uint64_t i = 0; i < 1000000; i += 100) dense.Set(i);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_TRUE(wah.Decompress() == dense);
  EXPECT_GT(wah.CompressionRatio(), 0.3);
  EXPECT_LT(wah.CompressionRatio(), 0.7);
}

TEST(WahBitVectorTest, CompressionRatioOfRandomVectorNearOne) {
  // Incompressible content costs 32/31 of verbatim (~1.03), matching the
  // paper's observation that BRE bitmaps "do not compress at all".
  BitVector dense(31 * 1000);
  for (uint64_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_NEAR(wah.CompressionRatio(), 32.0 / 31.0, 0.01);
}

TEST(WahBitVectorTest, EqualityOperator) {
  WahBitVector a;
  WahBitVector b;
  for (int i = 0; i < 100; ++i) {
    a.AppendBit(i % 2 == 0);
    b.AppendBit(i % 2 == 0);
  }
  EXPECT_TRUE(a == b);
  b.AppendBit(true);
  EXPECT_FALSE(a == b);
}

TEST(WahBitVectorTest, OpsOnNonAlignedSizes) {
  // Sizes that are not multiples of 31 exercise the active-word path.
  for (uint64_t n : {1u, 30u, 32u, 62u, 63u, 100u}) {
    WahBitVector a;
    WahBitVector b;
    for (uint64_t i = 0; i < n; ++i) {
      a.AppendBit(i % 2 == 0);
      b.AppendBit(i % 3 == 0);
    }
    const BitVector expected = And(a.Decompress(), b.Decompress());
    EXPECT_TRUE(a.And(b).Decompress() == expected) << "n=" << n;
  }
}

TEST(WahBitVectorTest, VeryLongFillRuns) {
  // Exceeds one fill word's 2^30-group capacity handling path in EmitFill.
  WahBitVector wah;
  const uint64_t big = (uint64_t{1} << 31) * 31 / 16;  // ~4.1e9 bits
  wah.AppendRun(false, big);
  EXPECT_EQ(wah.size(), big);
  EXPECT_EQ(wah.Count(), 0u);
}

TEST(WahBitVectorTest, DebugStringShapes) {
  WahBitVector wah;
  wah.AppendRun(false, 62);
  wah.AppendBit(true);
  const std::string debug = wah.DebugString();
  EXPECT_NE(debug.find("F0x2"), std::string::npos);
  EXPECT_NE(debug.find("A:"), std::string::npos);
}

// The word-at-a-time builders checked against AppendBit, one bit at a time.
template <typename WordT>
class WahBuilderTest : public ::testing::Test {};
using WordTypes = ::testing::Types<uint32_t, uint64_t>;
TYPED_TEST_SUITE(WahBuilderTest, WordTypes);

template <typename Vec>
void ExpectSameEncoding(const Vec& got, const Vec& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.active_bits(), want.active_bits());
  ASSERT_EQ(got.active_word(), want.active_word());
  ASSERT_EQ(got.NumWords(), want.NumWords());
  for (uint64_t i = 0; i < got.NumWords(); ++i) {
    ASSERT_EQ(got.code_words()[i], want.code_words()[i]) << "word " << i;
  }
}

TYPED_TEST(WahBuilderTest, AppendRunMatchesAppendBitAtEveryAlignment) {
  using Vec = BasicWahBitVector<TypeParam>;
  constexpr int kGroup = Vec::kGroupBits;
  // The prefix is one whole group of `bit` (a fill the run may extend) and
  // then `start` bits that are all `bit`, all !bit, or alternating, so the
  // run lands on every active_bits() and may or may not complete a fill.
  for (bool bit : {false, true}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      for (int start = 0; start < kGroup; ++start) {
        Vec prefix;
        for (int i = 0; i < kGroup; ++i) prefix.AppendBit(bit);
        for (int i = 0; i < start; ++i) {
          prefix.AppendBit(pattern == 0   ? bit
                           : pattern == 1 ? !bit
                                          : i % 2 == 0);
        }
        ASSERT_EQ(prefix.active_bits(), start);
        for (uint64_t count = 0; count <= 3 * kGroup + 1; ++count) {
          Vec got = prefix;
          got.AppendRun(bit, count);
          Vec want = prefix;
          for (uint64_t i = 0; i < count; ++i) want.AppendBit(bit);
          SCOPED_TRACE(::testing::Message()
                       << "bit=" << bit << " pattern=" << pattern
                       << " start=" << start << " count=" << count);
          ExpectSameEncoding(got, want);
        }
      }
    }
  }
}

TYPED_TEST(WahBuilderTest, FromPositionsAndFromGroupsMatchAppendBit) {
  using Vec = BasicWahBitVector<TypeParam>;
  constexpr uint64_t kGroup = Vec::kGroupBits;
  std::mt19937_64 rng(7);
  // Densities from empty through clustered runs to all ones, at sizes on and
  // around group boundaries.
  for (uint64_t size :
       {uint64_t{0}, uint64_t{1}, kGroup - 1, kGroup, kGroup + 1, 2 * kGroup,
        5 * kGroup + 3, uint64_t{2000}}) {
    for (int density : {0, 1, 50, 97, 100}) {
      std::vector<bool> bits(size);
      for (uint64_t i = 0; i < size; ++i) {
        // Runs of 40 bits share one coin, so whole groups fill up too.
        std::mt19937_64 run_rng(rng() ^ (i / 40));
        bits[i] = static_cast<int>(run_rng() % 100) < density;
      }
      Vec want;
      std::vector<uint32_t> positions;
      std::vector<TypeParam> groups((size + kGroup - 1) / kGroup);
      for (uint64_t i = 0; i < size; ++i) {
        want.AppendBit(bits[i]);
        if (!bits[i]) continue;
        positions.push_back(static_cast<uint32_t>(i));
        groups[i / kGroup] |= TypeParam{1} << (i % kGroup);
      }
      if (size % kGroup != 0) {
        // FromGroups must ignore the last word's bits past `size`.
        groups.back() |= static_cast<TypeParam>(
            ~((TypeParam{1} << (size % kGroup)) - 1) &
            ((TypeParam{1} << kGroup) - 1));
      }
      SCOPED_TRACE(::testing::Message() << "size=" << size
                                        << " density=" << density);
      ExpectSameEncoding(Vec::FromPositions(positions, size), want);
      ExpectSameEncoding(Vec::FromGroups(groups, size), want);
    }
  }
}

}  // namespace
}  // namespace incdb
