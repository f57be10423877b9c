#include "common/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace incdb {
namespace {

TEST(BinaryIoTest, ScalarRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI32(-42);
  writer.WriteDouble(3.25);
  ASSERT_TRUE(writer.status().ok());

  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.ReadI32().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.25);
}

TEST(BinaryIoTest, StringRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteString("hello");
  writer.WriteString("");
  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadString().value(), "");
}

TEST(BinaryIoTest, VectorRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32Vector({1, 2, 0xFFFFFFFF});
  writer.WriteU32Vector({});
  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadU32Vector().value(),
            (std::vector<uint32_t>{1, 2, 0xFFFFFFFF}));
  EXPECT_TRUE(reader.ReadU32Vector().value().empty());
}

TEST(BinaryIoTest, TruncatedInputFails) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32(7);
  BinaryReader reader(stream);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), StatusCode::kIOError);
}

TEST(BinaryIoTest, CorruptedLengthPrefixRejected) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU64(uint64_t{1} << 60);  // absurd string length
  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadString().status().code(), StatusCode::kIOError);
}

// A length prefix under the limit but far beyond the input must fail at
// the end of the input, without first allocating the claimed elements
// (2^32 - 1 of them would be 16 GiB of u32s).
TEST(BinaryIoTest, HugeLengthOverShortInputFailsWithoutAllocating) {
  constexpr uint64_t kClaimed = (uint64_t{1} << 32) - 1;
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.WriteU64(kClaimed);
  for (uint32_t i = 0; i < 10; ++i) writer.WriteU32(i);
  const std::string bytes = out.str();
  std::istringstream u32(bytes), u64(bytes), i32(bytes), text(bytes);
  EXPECT_EQ(BinaryReader(u32).ReadU32Vector().status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(BinaryReader(u64).ReadU64Vector().status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(BinaryReader(i32).ReadI32Vector().status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(BinaryReader(text).ReadString(kClaimed).status().code(),
            StatusCode::kIOError);
}

TEST(BinaryIoTest, VectorsLongerThanOneReadChunkRoundTrip) {
  std::vector<uint32_t> u32(5000);
  std::vector<uint64_t> u64(3000);
  std::vector<int32_t> i32(4099);
  for (size_t i = 0; i < u32.size(); ++i) {
    u32[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  for (size_t i = 0; i < u64.size(); ++i) u64[i] = i * 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < i32.size(); ++i) {
    i32[i] = static_cast<int32_t>(i) - 2000;
  }
  const std::string text(10000, 'x');
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32Vector(u32);
  writer.WriteU64Vector(u64);
  writer.WriteI32Vector(i32);
  writer.WriteString(text);
  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadU32Vector().value(), u32);
  EXPECT_EQ(reader.ReadU64Vector().value(), u64);
  EXPECT_EQ(reader.ReadI32Vector().value(), i32);
  EXPECT_EQ(reader.ReadString().value(), text);
}

TEST(BinaryIoTest, LittleEndianLayout) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32(0x04030201);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x04);
}

}  // namespace
}  // namespace incdb
