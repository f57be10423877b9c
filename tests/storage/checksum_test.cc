// storage::Crc32 and Crc32Accumulator at every SIMD dispatch level: the
// section writer's running checksum, fed in many small pieces, must equal
// a one-shot checksum of the same bytes, and both must be the standard
// CRC-32. The kernels themselves are checked against a byte-at-a-time
// oracle in tests/simd/simd_kernels_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "simd/simd.h"
#include "storage/checksum.h"

namespace incdb {
namespace storage {
namespace {

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    if (simd::DetectedLevel() >= level) levels.push_back(level);
  }
  return levels;
}

// Runs `check` with storage::Crc32 dispatched to each level in turn, then
// restores the level the process started with.
template <typename Check>
void AtEveryLevel(Check check) {
  const simd::Level original = simd::ActiveLevel();
  for (simd::Level level : AvailableLevels()) {
    simd::ForceLevelForTesting(level);
    SCOPED_TRACE(std::string(simd::LevelToString(level)));
    check();
  }
  simd::ForceLevelForTesting(original);
}

TEST(Crc32Test, KnownAnswer) {
  AtEveryLevel([] {
    constexpr std::string_view kCheck = "123456789";
    EXPECT_EQ(Crc32(kCheck.data(), kCheck.size()), 0xCBF43926u);
    EXPECT_EQ(Crc32(nullptr, 0), 0u);
  });
}

TEST(Crc32Test, AccumulatorOverRandomSplitsEqualsOneShot) {
  AtEveryLevel([] {
    Rng rng(20261018);
    std::vector<uint8_t> bytes(200000);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const uint32_t one_shot = Crc32(bytes.data(), bytes.size());
    for (int trial = 0; trial < 4; ++trial) {
      // Piece sizes from the writer's 8-byte padding up to whole columns;
      // trial 0 keeps every piece under the 64-byte fold threshold.
      const int64_t max_piece =
          trial == 0 ? 63 : int64_t{1} << (6 + 3 * trial);
      Crc32Accumulator acc;
      size_t pos = 0;
      while (pos < bytes.size()) {
        const size_t piece = std::min<size_t>(
            static_cast<size_t>(rng.UniformInt(0, max_piece)),
            bytes.size() - pos);
        acc.Update(bytes.data() + pos, piece);
        pos += piece;
      }
      EXPECT_EQ(acc.crc(), one_shot) << "trial=" << trial;
      EXPECT_EQ(acc.bytes(), bytes.size());
    }
  });
}

}  // namespace
}  // namespace storage
}  // namespace incdb
