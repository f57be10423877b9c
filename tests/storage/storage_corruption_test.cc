// Corruption-injection tests: flipping any byte of any store file,
// truncating any file, deleting a file, or presenting a future format
// version must surface as a Status error from Database::Open — never a
// crash, never a silently wrong database.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/io.h"
#include "core/database.h"
#include "storage/checksum.h"
#include "storage/format.h"
#include "table/generator.h"
#include "vafile/va_file.h"
#include "temp_store_dir.h"

namespace incdb {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

DatasetSpec CorruptionSpec() {
  DatasetSpec spec;
  spec.seed = 42;
  spec.num_rows = 120;
  spec.attributes.push_back({"a", 5, 0.2, 0.0});
  spec.attributes.push_back({"b", 9, 0.0, 0.0});
  return spec;
}

/// A store with data and a couple of zero-copy indexes, small enough to
/// corrupt byte by byte.
class StorageCorruptionTest : public TempStoreTest<> {
 protected:
  void SetUp() override {
    TempStoreTest::SetUp();
    Table table = GenerateTable(CorruptionSpec()).value();
    Database db = std::move(Database::FromTable(std::move(table)).value());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
    // The v3 composite blob records (multi-component + hierarchical) must
    // be walked by the byte-flip loops too: every byte of their wire
    // metadata and WAH words lives inside some checksummed section.
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapMultiComponent).ok());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapHierarchical).ok());
    dir_ = StoreDir("corrupt");
    ASSERT_TRUE(db.Save(dir_).ok());
    // A fresh directory always commits generation 1.
    files_ = {storage::kManifestFile, storage::CatalogFileName(1),
              storage::SegmentFileName(1)};
    for (const std::string& file : files_) {
      pristine_[file] = ReadFile(dir_ + "/" + file);
    }
    // Sanity: the pristine store opens.
    ASSERT_TRUE(Database::Open(dir_).ok());
  }

  void Restore(const std::string& file) {
    WriteFile(dir_ + "/" + file, pristine_[file]);
  }

  std::string dir_;
  std::vector<std::string> files_;
  std::map<std::string, std::string> pristine_;
};

TEST_F(StorageCorruptionTest, EveryFlippedByteIsDetected) {
  // Every byte of every file participates in some integrity check: the
  // manifest in its trailing CRC, catalog.bin and data.seg in a section
  // CRC (or, for the segment magic, the magic comparison). Flip each in
  // turn and expect a clean Status failure.
  for (const std::string& file : files_) {
    const std::string& pristine = pristine_[file];
    for (size_t pos = 0; pos < pristine.size(); ++pos) {
      std::string corrupted = pristine;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x2A);
      WriteFile(dir_ + "/" + file, corrupted);
      const auto result = Database::Open(dir_);
      EXPECT_FALSE(result.ok())
          << file << ": flipped byte " << pos << " went undetected";
    }
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, TruncationIsDetected) {
  for (const std::string& file : files_) {
    const std::string& pristine = pristine_[file];
    for (size_t keep :
         {size_t{0}, size_t{4}, pristine.size() / 2, pristine.size() - 1}) {
      WriteFile(dir_ + "/" + file, pristine.substr(0, keep));
      const auto result = Database::Open(dir_);
      EXPECT_FALSE(result.ok())
          << file << " truncated to " << keep << " bytes went undetected";
    }
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, MissingFileIsDetected) {
  for (const std::string& file : files_) {
    ASSERT_EQ(std::remove((dir_ + "/" + file).c_str()), 0);
    const auto result = Database::Open(dir_);
    EXPECT_FALSE(result.ok()) << "missing " << file << " went undetected";
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, FutureFormatVersionIsRefused) {
  // The version field is the u32 right after the length-prefixed magic
  // string; patch it and re-sign the manifest so only the version check
  // can object.
  std::string manifest = pristine_[storage::kManifestFile];
  const size_t version_offset =
      sizeof(uint64_t) + std::string(storage::kManifestMagic).size();
  ASSERT_LT(version_offset + 4, manifest.size());
  manifest[version_offset] =
      static_cast<char>(storage::kFormatVersion + 1);
  const size_t body = manifest.size() - 4;
  const uint32_t crc = storage::Crc32(manifest.data(), body);
  for (int b = 0; b < 4; ++b) {
    manifest[body + static_cast<size_t>(b)] =
        static_cast<char>((crc >> (8 * b)) & 0xFF);
  }
  WriteFile(dir_ + "/" + storage::kManifestFile, manifest);
  const auto result = Database::Open(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos)
      << result.status().ToString();
}

TEST_F(StorageCorruptionTest, WrongMagicIsRefused) {
  for (const std::string& file : files_) {
    std::string corrupted = pristine_[file];
    // Clobber the first 12 bytes (covers both length-prefixed string
    // magics and the raw segment magic).
    for (size_t i = 0; i < 12 && i < corrupted.size(); ++i) {
      corrupted[i] = 'X';
    }
    WriteFile(dir_ + "/" + file, corrupted);
    EXPECT_FALSE(Database::Open(dir_).ok()) << file;
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, SegmentCorruptionNeedsChecksumPass) {
  // With verification off, open itself is O(1) and must still succeed on a
  // pristine store; this documents (rather than guarantees) that the
  // fast path is the caller's trade-off, not a hidden verify.
  ASSERT_TRUE(Database::Open(dir_, /*verify_checksums=*/false).ok());
}

TEST_F(StorageCorruptionTest, UnverifiedOpenRejectsHugeVaFileLengths) {
  // Without the checksum pass a corrupt catalog reaches the VA-file reader.
  // Its lengths must fail at the end of the catalog instead of sizing an
  // allocation first: 2^32 - 1 bin codes would be 16 GiB, 2^30 bins 8 GiB.
  const std::string catalog = storage::CatalogFileName(1);
  Table table = GenerateTable(CorruptionSpec()).value();
  const VaFile va = VaFile::Build(table).value();
  const VaFile::AttributeQuantizer& first = va.attributes().front();
  std::ostringstream record;
  BinaryWriter writer(record);
  writer.WriteU32(static_cast<uint32_t>(first.bits));
  writer.WriteU32(first.num_bins);
  writer.WriteU32(first.cardinality);
  writer.WriteU32(first.bit_offset);
  writer.WriteU32Vector(first.code_of_value);
  const std::string& pristine = pristine_[catalog];
  const size_t at = pristine.find(record.str());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(pristine.find(record.str(), at + 1), std::string::npos);

  const auto patch = [&](size_t offset, uint64_t value, size_t width) {
    std::string corrupted = pristine;
    for (size_t b = 0; b < width; ++b) {
      corrupted[at + offset + b] = static_cast<char>(value >> (8 * b));
    }
    WriteFile(dir_ + "/" + catalog, corrupted);
    const auto opened = Database::Open(dir_, /*verify_checksums=*/false);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
    // The checksum pass names the damage before any length is read.
    EXPECT_FALSE(Database::Open(dir_).ok());
  };
  patch(/*code_of_value length*/ 16, (uint64_t{1} << 32) - 1, 8);
  patch(/*num_bins*/ 4, uint64_t{1} << 30, 4);
  Restore(catalog);
}

// Kind bytes 7 and 8 were the MOSAIC and bitstring-augmented R-tree
// baselines. A store that still holds one must fail to open with a Status
// naming the removed kind, not as a corrupted tag and never by crashing.
class RetiredIndexKindTest
    : public TempStoreTest<::testing::TestWithParam<int>> {};

TEST_P(RetiredIndexKindTest, OpenNamesTheRemovedKind) {
  const Table table = GenerateTable(CorruptionSpec()).value();
  const uint64_t rows = table.num_rows();
  Database db = std::move(Database::FromTable(table).value());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const std::string dir = StoreDir("retired");
  ASSERT_TRUE(db.Save(dir).ok());

  // The registry record is u64 index count, u8 kind, u64 covered rows.
  std::ostringstream record_stream;
  BinaryWriter record(record_stream);
  record.WriteU64(1);
  record.WriteU8(static_cast<uint8_t>(IndexKind::kBitmapEquality));
  record.WriteU64(rows);
  const std::string catalog_file = dir + "/" + storage::CatalogFileName(1);
  std::string catalog = ReadFile(catalog_file);
  const size_t at = catalog.find(record_stream.str());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(catalog.find(record_stream.str(), at + 1), std::string::npos);
  const uint32_t old_crc = storage::Crc32(catalog.data(), catalog.size());
  catalog[at + sizeof(uint64_t)] = static_cast<char>(GetParam());
  const uint32_t new_crc = storage::Crc32(catalog.data(), catalog.size());
  WriteFile(catalog_file, catalog);

  // Re-sign: the catalog is one section, so its CRC sits once in the
  // manifest's section table; then the manifest's own trailing CRC.
  const auto le32 = [](uint32_t v) {
    std::string bytes(4, '\0');
    for (int b = 0; b < 4; ++b) {
      bytes[static_cast<size_t>(b)] = static_cast<char>((v >> (8 * b)) & 0xFF);
    }
    return bytes;
  };
  const std::string manifest_file = dir + "/" + storage::kManifestFile;
  std::string manifest = ReadFile(manifest_file);
  const size_t body = manifest.size() - 4;
  const std::string table_bytes = manifest.substr(0, body);
  const size_t crc_at = table_bytes.find(le32(old_crc));
  ASSERT_NE(crc_at, std::string::npos);
  ASSERT_EQ(table_bytes.find(le32(old_crc), crc_at + 1), std::string::npos);
  manifest.replace(crc_at, 4, le32(new_crc));
  manifest.replace(body, 4, le32(storage::Crc32(manifest.data(), body)));
  WriteFile(manifest_file, manifest);

  const char* removed = GetParam() == 7 ? "MOSAIC" : "bitstring-augmented";
  for (bool verify : {true, false}) {
    const auto opened = Database::Open(dir, verify);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported);
    const std::string message = opened.status().ToString();
    EXPECT_NE(message.find(removed), std::string::npos) << message;
    EXPECT_NE(message.find("no longer served"), std::string::npos) << message;
  }
}

INSTANTIATE_TEST_SUITE_P(MosaicAndBitstring, RetiredIndexKindTest,
                         ::testing::Values(7, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 7 ? std::string("MOSAIC")
                                                  : std::string("Bitstring");
                         });

}  // namespace
}  // namespace incdb
