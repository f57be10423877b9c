// The one WAH wire form: the store writes a vector's code words, active
// word, active bits and size (storage/writer.cc WriteWahBitvector) and
// reopens them zero-copy with FromBorrowed, plus ValidateStructure when
// checksums are verified (storage/reader.cc).

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

WahBitVector RandomWah(Rng& rng, uint64_t n, double density) {
  WahBitVector wah;
  uint64_t i = 0;
  while (i < n) {
    const bool bit = rng.Bernoulli(density);
    const uint64_t run =
        std::min<uint64_t>(n - i, 1 + rng.UniformInt(0, 100));
    wah.AppendRun(bit, run);
    i += run;
  }
  return wah;
}

/// Reopens `words` the way the store reader does, validation included.
Result<WahBitVector> Reopen(const std::vector<uint32_t>& words,
                            uint32_t active_word, int active_bits,
                            uint64_t size) {
  INCDB_ASSIGN_OR_RETURN(
      WahBitVector vec,
      WahBitVector::FromBorrowed(words, active_word, active_bits, size));
  INCDB_RETURN_IF_ERROR(vec.ValidateStructure());
  return vec;
}

TEST(WahSerializationTest, RoundTripVariousShapes) {
  Rng rng(3);
  for (uint64_t n : {0u, 1u, 31u, 62u, 100u, 10000u}) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      const WahBitVector original = RandomWah(rng, n, density);
      const std::vector<uint32_t> words(original.code_words().begin(),
                                        original.code_words().end());
      const auto loaded = Reopen(words, original.active_word(),
                                 original.active_bits(), original.size());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_TRUE(loaded.value() == original) << "n=" << n << " d=" << density;
      EXPECT_TRUE(loaded.value().Decompress() == original.Decompress());
    }
  }
}

TEST(WahSerializationTest, RejectsBadActiveBits) {
  // active_bits must lie in [0, 31).
  EXPECT_EQ(Reopen({}, 0, 31, 10).status().code(), StatusCode::kIOError);
}

TEST(WahSerializationTest, RejectsStrayActiveWordBits) {
  // Two active bits, but the active word sets bits beyond the low two.
  EXPECT_EQ(Reopen({}, 0xF, 2, 2).status().code(), StatusCode::kIOError);
}

TEST(WahSerializationTest, RejectsSizeMismatch) {
  // A 1-fill of 2 groups is 62 bits, not the declared 93.
  EXPECT_EQ(Reopen({0xC0000002u}, 0, 0, 93).status().code(),
            StatusCode::kIOError);
}

TEST(WahSerializationTest, ValidateStructureRejectsOverflowingFillCounts) {
  // Adversarial borrowed payload: five fill words whose group counts sum
  // to 2^64 + 1, so an unguarded uint64 accumulator wraps to 1 group —
  // exactly matching the declared size of 63 bits — while the vector
  // would actually decode ~2^64 groups past it. ValidateStructure must
  // bound the running total against the declared size instead of trusting
  // the wrapped sum.
  using Traits = wah_internal::WahTraits<uint64_t>;
  const uint64_t kMax = Traits::kMaxFillGroups;  // 2^62 - 1
  const uint64_t words[] = {
      Traits::MakeFill(false, kMax), Traits::MakeFill(false, kMax),
      Traits::MakeFill(false, kMax), Traits::MakeFill(false, kMax),
      Traits::MakeFill(false, 5),  // 4 * (2^62 - 1) + 5 == 2^64 + 1
  };
  auto vec = Wah64BitVector::FromBorrowed(
      std::span<const uint64_t>(words), /*active_word=*/0, /*active_bits=*/0,
      /*size=*/63);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  EXPECT_EQ(vec->ValidateStructure().code(), StatusCode::kIOError);
}

TEST(WahSerializationTest, TruncatedPayloadFails) {
  Rng rng(5);
  const WahBitVector wah = RandomWah(rng, 1000, 0.5);
  std::vector<uint32_t> words(wah.code_words().begin(),
                              wah.code_words().end());
  ASSERT_GE(words.size(), 2u);
  words.resize(words.size() / 2);
  EXPECT_FALSE(
      Reopen(words, wah.active_word(), wah.active_bits(), wah.size()).ok());
}

}  // namespace
}  // namespace incdb
