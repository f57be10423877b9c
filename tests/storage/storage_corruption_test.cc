// Corruption-injection tests: flipping any byte of any store file,
// truncating any file, deleting a file, or presenting a future format
// version must surface as a Status error from Database::Open — never a
// crash, never a silently wrong database.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
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

/// The bytes BinaryWriter emits for whatever `write` writes.
template <typename Write>
std::string Bytes(const Write& write) {
  std::ostringstream stream;
  BinaryWriter writer(stream);
  write(writer);
  return stream.str();
}

/// Overwrites the one occurrence of `from` in `path` with `to` (same
/// length) and returns the file's CRC before and after.
std::pair<uint32_t, uint32_t> PatchFile(const std::string& path,
                                        const std::string& from,
                                        const std::string& to) {
  std::string bytes = ReadFile(path);
  const size_t at = bytes.find(from);
  EXPECT_NE(at, std::string::npos) << path;
  EXPECT_EQ(bytes.find(from, at + 1), std::string::npos) << path;
  EXPECT_EQ(from.size(), to.size());
  if (at == std::string::npos) return {0, 0};
  const uint32_t old_crc = storage::Crc32(bytes.data(), bytes.size());
  bytes.replace(at, to.size(), to);
  WriteFile(path, bytes);
  return {old_crc, storage::Crc32(bytes.data(), bytes.size())};
}

std::string Le32(uint32_t v) {
  return Bytes([v](BinaryWriter& w) { w.WriteU32(v); });
}

/// Patches generation 1's catalog of the store at `dir` and re-signs it, so
/// the edit reaches the reader past the checksums even when they are
/// verified: the catalog is one section, so its CRC sits once in the
/// manifest's section table, followed by the manifest's own trailing CRC.
void PatchCatalog(const std::string& dir, const std::string& from,
                  const std::string& to) {
  const auto [old_crc, new_crc] =
      PatchFile(dir + "/" + storage::CatalogFileName(1), from, to);
  const std::string manifest_file = dir + "/" + storage::kManifestFile;
  std::string manifest = ReadFile(manifest_file);
  const size_t body = manifest.size() - 4;
  const std::string table_bytes = manifest.substr(0, body);
  const size_t crc_at = table_bytes.find(Le32(old_crc));
  ASSERT_NE(crc_at, std::string::npos);
  ASSERT_EQ(table_bytes.find(Le32(old_crc), crc_at + 1), std::string::npos);
  manifest.replace(crc_at, 4, Le32(new_crc));
  manifest.replace(body, 4, Le32(storage::Crc32(manifest.data(), body)));
  WriteFile(manifest_file, manifest);
}

/// The registry record head: u8 kind, u64 covered rows.
std::string RecordHead(IndexKind kind, uint64_t rows) {
  return Bytes([&](BinaryWriter& w) {
    w.WriteU8(static_cast<uint8_t>(kind));
    w.WriteU64(rows);
  });
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

  // The registry is a u64 index count, then one record per index.
  const std::string count = Bytes([](BinaryWriter& w) { w.WriteU64(1); });
  std::string retired = count + RecordHead(IndexKind::kBitmapEquality, rows);
  retired[sizeof(uint64_t)] = static_cast<char>(GetParam());
  PatchCatalog(dir, count + RecordHead(IndexKind::kBitmapEquality, rows),
               retired);

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

/// Each case saves a store holding one index, rewrites one header byte so
/// it disagrees with the record's kind, and expects both verified and
/// unverified opens to refuse the store with an IOError saying why.
class KindHeaderMismatchTest : public TempStoreTest<> {
 protected:
  void ExpectOpenRefused(const std::string& dir, const std::string& why) {
    for (bool verify : {true, false}) {
      const auto opened = Database::Open(dir, verify);
      ASSERT_FALSE(opened.ok()) << "verify=" << verify;
      EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
      EXPECT_NE(opened.status().ToString().find(why), std::string::npos)
          << opened.status().ToString();
    }
  }

  /// Saves a store holding one registry index of `kind`; returns its rows.
  uint64_t SaveWithIndex(IndexKind kind, const std::string& dir) {
    Database db =
        std::move(Database::FromTable(GenerateTable(CorruptionSpec()).value())
                      .value());
    EXPECT_TRUE(db.BuildIndex(kind).ok());
    EXPECT_TRUE(db.Save(dir).ok());
    EXPECT_TRUE(Database::Open(dir).ok());
    return db.num_rows();
  }

  /// Saves a store whose 64-row segments carry BEE; returns the one
  /// segment file's name.
  std::string SaveSegmented(const std::string& dir) {
    Database db =
        std::move(Database::FromTable(GenerateTable(CorruptionSpec()).value())
                      .value());
    SegmentOptions options;
    options.segment_rows = 64;
    EXPECT_TRUE(db.EnableSegments(options).ok());
    EXPECT_TRUE(db.Save(dir).ok());
    EXPECT_TRUE(Database::Open(dir).ok());
    std::string segment_file;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (storage::IsSegmentDataFileName(name)) {
        EXPECT_TRUE(segment_file.empty()) << "more than one segment file";
        segment_file = name;
      }
    }
    EXPECT_FALSE(segment_file.empty());
    return segment_file;
  }
};

TEST_F(KindHeaderMismatchTest, BitmapEncodingByteDisagreesWithKind) {
  const std::string dir = StoreDir("bee");
  const uint64_t rows = SaveWithIndex(IndexKind::kBitmapEquality, dir);
  // BEE's header is u8 encoding, u8 missing strategy, u64 rows; claim BRE.
  const auto header = [rows](BitmapEncoding encoding) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU8(static_cast<uint8_t>(encoding));
      w.WriteU8(static_cast<uint8_t>(MissingStrategy::kExtraBitmap));
      w.WriteU64(rows);
    });
  };
  const std::string head = RecordHead(IndexKind::kBitmapEquality, rows);
  PatchCatalog(dir, head + header(BitmapEncoding::kEquality),
               head + header(BitmapEncoding::kRange));
  ExpectOpenRefused(dir, "bitmap header does not match its index kind");
}

TEST_F(KindHeaderMismatchTest, CompositeSchemeByteDisagreesWithKind) {
  const std::string dir = StoreDir("hier");
  const uint64_t rows = SaveWithIndex(IndexKind::kBitmapHierarchical, dir);
  // A composite header is u8 slot scheme, u64 rows; claim multi-component.
  const auto header = [rows](SlotScheme scheme) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU8(static_cast<uint8_t>(scheme));
      w.WriteU64(rows);
    });
  };
  const std::string head = RecordHead(IndexKind::kBitmapHierarchical, rows);
  PatchCatalog(dir, head + header(SlotScheme::kHierarchical),
               head + header(SlotScheme::kMultiComponent));
  ExpectOpenRefused(dir, "bitmap header does not match its index kind");
}

TEST_F(KindHeaderMismatchTest, VaQuantizationDisagreesWithKind) {
  const std::string dir = StoreDir("va");
  const uint64_t rows = SaveWithIndex(IndexKind::kVaFile, dir);
  // A VA header is u8 quantization, u32 bits override; claim equi-depth.
  const auto header = [](VaQuantization quantization) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU8(static_cast<uint8_t>(quantization));
      w.WriteU32(0);
    });
  };
  const std::string head = RecordHead(IndexKind::kVaFile, rows);
  PatchCatalog(dir, head + header(VaQuantization::kUniform),
               head + header(VaQuantization::kEquiDepth));
  ExpectOpenRefused(dir, "VA-file quantization does not match its index kind");
}

TEST_F(KindHeaderMismatchTest, SegmentOptionsKindIsNotASegmentKind) {
  const std::string dir = StoreDir("seg_options");
  SaveSegmented(dir);
  // The segment table opens with u8 flag, u64 segment rows, u8 kind, u64
  // sealed rows.
  const auto options = [](IndexKind kind) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU8(1);
      w.WriteU64(64);
      w.WriteU8(static_cast<uint8_t>(kind));
      w.WriteU64(64);
    });
  };
  PatchCatalog(dir, options(IndexKind::kBitmapEquality),
               options(IndexKind::kVaFile));
  ExpectOpenRefused(dir, "corrupted segment options");
}

TEST_F(KindHeaderMismatchTest, SegmentEntryKindIsNotASegmentKind) {
  const std::string dir = StoreDir("seg_entry");
  const std::string file = SaveSegmented(dir);
  // Each segment-table entry ends u8 kind, then the file name string.
  const auto entry = [&file](IndexKind kind) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU8(static_cast<uint8_t>(kind));
      w.WriteString(file);
    });
  };
  PatchCatalog(dir, entry(IndexKind::kBitmapEquality),
               entry(IndexKind::kVaFile));
  ExpectOpenRefused(dir, "corrupted segment index kind");
}

TEST_F(KindHeaderMismatchTest, SegmentFileKindIsNotASegmentKind) {
  const std::string dir = StoreDir("seg_file");
  const std::string file = SaveSegmented(dir);
  // The segment file's meta block carries u64 rows, u64 attributes, u8
  // kind; its CRC sits in the catalog's segment table, which is re-signed.
  const auto meta = [](IndexKind kind) {
    return Bytes([&](BinaryWriter& w) {
      w.WriteU64(64);
      w.WriteU64(2);
      w.WriteU8(static_cast<uint8_t>(kind));
    });
  };
  const auto [old_crc, new_crc] =
      PatchFile(dir + "/" + file, meta(IndexKind::kBitmapEquality),
                meta(IndexKind::kVaFile));
  PatchCatalog(dir, Le32(old_crc), Le32(new_crc));
  ExpectOpenRefused(dir, "segment identity does not match the catalog");
}

INSTANTIATE_TEST_SUITE_P(MosaicAndBitstring, RetiredIndexKindTest,
                         ::testing::Values(7, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 7 ? std::string("MOSAIC")
                                                  : std::string("Bitstring");
                         });

}  // namespace
}  // namespace incdb
