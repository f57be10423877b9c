// Save → Open round-trip property tests: a persisted database must answer
// every query shape byte-identically to the database it was saved from —
// for every index kind, both missing semantics, with deletions, and after
// further appends on the opened side. Exercises the mmap zero-copy path
// end to end (tests run with verify_checksums both on and off).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "storage/checksum.h"
#include "storage/format.h"
#include "temp_store_dir.h"
#include "table/generator.h"

namespace incdb {
namespace {

DatasetSpec SmallSpec(uint64_t seed) {
  DatasetSpec spec;
  spec.seed = seed;
  spec.num_rows = 400;
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  const uint32_t cardinalities[] = {7, 16, 3, 101};
  const double missing[] = {0.0, 0.15, 0.5, 0.05};
  for (int a = 0; a < 4; ++a) {
    GeneratedAttribute attr;
    attr.name = names[a];
    attr.cardinality = cardinalities[a];
    attr.missing_rate = missing[a];
    attr.zipf_theta = a == 3 ? 1.2 : 0.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

Database MakeDatabase(uint64_t seed) {
  Table table = GenerateTable(SmallSpec(seed)).value();
  return std::move(Database::FromTable(std::move(table)).value());
}

/// The query shapes the acceptance criteria call out: equality, interval
/// (both semantics), boolean expression, count-only.
std::vector<QueryRequest> CanonicalRequests() {
  std::vector<QueryRequest> requests;
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    requests.push_back(QueryRequest::Terms({{"alpha", 3, 3}}, semantics));
    requests.push_back(QueryRequest::Terms({{"beta", 4, 11}}, semantics));
    requests.push_back(
        QueryRequest::Terms({{"alpha", 2, 6}, {"delta", 10, 60}}, semantics));
    requests.push_back(QueryRequest::Text(
        "alpha IN [2,5] AND NOT beta = 7", semantics));
    requests.push_back(QueryRequest::Text(
        "gamma = 1 OR delta IN [90,101]", semantics));
    requests.push_back(
        QueryRequest::Terms({{"beta", 1, 16}}, semantics).CountOnly());
    requests.push_back(
        QueryRequest::Text("alpha IN [1,4] AND gamma IN [1,2]", semantics)
            .CountOnly());
  }
  return requests;
}

void ExpectSameAnswers(const Database& original, const Database& reopened) {
  for (const QueryRequest& request : CanonicalRequests()) {
    const auto expected = original.Run(request);
    const auto actual = reopened.Run(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(expected->count, actual->count);
    EXPECT_EQ(expected->row_ids, actual->row_ids);
  }
}

class StorageRoundTripTest
    : public TempStoreTest<::testing::TestWithParam<IndexKind>> {};

TEST_P(StorageRoundTripTest, EveryQueryShapeSurvivesSaveOpen) {
  Database db = MakeDatabase(/*seed=*/7);
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const std::string dir = StoreDir("kind");
  ASSERT_TRUE(db.Save(dir).ok());

  for (bool verify : {true, false}) {
    auto reopened = Database::Open(dir, verify);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(db.num_rows(), reopened->num_rows());
    EXPECT_TRUE(reopened->HasIndex(GetParam()));
    ExpectSameAnswers(db, reopened.value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StorageRoundTripTest,
    ::testing::Values(IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                      IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
                      IndexKind::kBitmapMultiComponent,
                      IndexKind::kBitmapHierarchical,
                      IndexKind::kVaFile, IndexKind::kVaPlusFile));

class StorageRoundTrip : public TempStoreTest<> {};

TEST_F(StorageRoundTrip, AllIndexesAtOnce) {
  Database db = MakeDatabase(/*seed=*/11);
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
        IndexKind::kVaFile}) {
    ASSERT_TRUE(db.BuildIndex(kind).ok());
  }
  const std::string dir = StoreDir("all");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(db.Indexes(), reopened->Indexes());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, NoIndexes) {
  Database db = MakeDatabase(/*seed=*/13);
  const std::string dir = StoreDir("plain");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->Indexes().empty());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, DeletionsSurvive) {
  Database db = MakeDatabase(/*seed=*/17);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Delete(i * 7).ok());
  }
  const std::string dir = StoreDir("deleted");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(db.num_deleted_rows(), reopened->num_deleted_rows());
  EXPECT_EQ(db.num_live_rows(), reopened->num_live_rows());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, OpenedDatabaseAcceptsWrites) {
  Database db = MakeDatabase(/*seed=*/23);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const std::string dir = StoreDir("writes");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // Mirror a mutation sequence on both sides; answers must stay identical
  // (the opened side serves appended rows via the delta scan over its
  // borrowed-prefix columns).
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    std::vector<Value> row;
    for (const AttributeSpec& attr : db.table().schema().attributes()) {
      row.push_back(rng.Bernoulli(0.2)
                        ? kMissingValue
                        : static_cast<Value>(rng.UniformInt(
                              1, static_cast<int64_t>(attr.cardinality))));
    }
    ASSERT_TRUE(db.Insert(row).ok());
    ASSERT_TRUE(reopened->Insert(row).ok());
  }
  ASSERT_TRUE(db.Delete(10).ok());
  ASSERT_TRUE(reopened->Delete(10).ok());
  ExpectSameAnswers(db, reopened.value());

  // A rebuild on the opened database re-covers the appended tail.
  ASSERT_TRUE(reopened->BuildIndex(IndexKind::kBitmapRange).ok());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, SecondGenerationSaveOpen) {
  Database db = MakeDatabase(/*seed=*/29);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapInterval).ok());
  const std::string dir1 = StoreDir("gen1");
  ASSERT_TRUE(db.Save(dir1).ok());
  auto gen1 = Database::Open(dir1);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();

  // Mutate the opened database, save it again, and reopen: borrowed
  // (mmap-backed) columns and bitvectors must serialize correctly too.
  ASSERT_TRUE(gen1->Insert({1, 2, 3, 4}).ok());
  ASSERT_TRUE(gen1->Delete(3).ok());
  const std::string dir2 = StoreDir("gen2");
  ASSERT_TRUE(gen1->Save(dir2).ok());
  auto gen2 = Database::Open(dir2);
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_EQ(gen1->num_rows(), gen2->num_rows());
  ExpectSameAnswers(gen1.value(), gen2.value());
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

TEST_F(StorageRoundTrip, SaveBackIntoOpenedDirectory) {
  // The scenario the generation scheme exists for: Save into the very
  // directory the database was opened from. The writer must never
  // truncate the payload files the snapshot is serving through its mmap
  // (that would fault mid-save and destroy the store); it writes a fresh
  // generation beside them and commits by swapping the manifest.
  Database db = MakeDatabase(/*seed=*/37);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const std::string dir = StoreDir("inplace");
  ASSERT_TRUE(db.Save(dir).ok());

  auto opened = Database::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->Insert({5, 6, 1, 40}).ok());
  ASSERT_TRUE(opened->Delete(2).ok());
  ASSERT_TRUE(db.Insert({5, 6, 1, 40}).ok());
  ASSERT_TRUE(db.Delete(2).ok());
  ASSERT_TRUE(opened->Save(dir).ok());

  // The opened database keeps serving from its (now unlinked)
  // generation-1 mapping after the save replaced the store.
  ExpectSameAnswers(db, opened.value());

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(opened->num_rows(), reopened->num_rows());
  EXPECT_EQ(opened->num_deleted_rows(), reopened->num_deleted_rows());
  ExpectSameAnswers(opened.value(), reopened.value());
}

TEST_F(StorageRoundTrip, InPlaceSaveCommitsAtomicallyAndCollectsGarbage) {
  Database db = MakeDatabase(/*seed=*/41);
  const std::string dir = StoreDir("gc");
  ASSERT_TRUE(db.Save(dir).ok());
  ASSERT_TRUE(FileExists(dir + "/" + storage::SegmentFileName(1)));

  // Plant the debris a crashed save could leave behind: an abandoned
  // manifest temp file and a half-written future generation. Open must
  // ignore both — the committed MANIFEST is the only source of truth.
  { std::ofstream(dir + "/" + storage::kManifestTmpFile) << "garbage"; }
  { std::ofstream(dir + "/" + storage::SegmentFileName(9)) << "partial"; }
  auto opened = Database::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  // The next save steps past the debris generation (never reusing a file
  // name that might be mapped or half-written), commits, and collects
  // everything it superseded.
  ASSERT_TRUE(db.Save(dir).ok());
  EXPECT_TRUE(FileExists(dir + "/" + storage::kManifestFile));
  EXPECT_TRUE(FileExists(dir + "/" + storage::SegmentFileName(10)));
  EXPECT_TRUE(FileExists(dir + "/" + storage::CatalogFileName(10)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::kManifestTmpFile));
  EXPECT_FALSE(FileExists(dir + "/" + storage::SegmentFileName(1)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::CatalogFileName(1)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::SegmentFileName(9)));
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, MissingRatesComeFromCatalogNotRescan) {
  Database db = MakeDatabase(/*seed=*/31);
  const std::string dir = StoreDir("rates");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Snapshot before = db.GetSnapshot();
  const Snapshot after = reopened->GetSnapshot();
  for (size_t a = 0; a < db.table().num_attributes(); ++a) {
    EXPECT_DOUBLE_EQ(before.MissingRate(a), after.MissingRate(a)) << a;
  }
}

/// CRC-32 of every file directly inside `dir`, keyed by file name. The
/// MANIFEST ends in a CRC of its own bytes, which would make a whole-file
/// CRC the same constant for every manifest, so its body is checksummed
/// without those four bytes.
std::map<std::string, uint32_t> FileChecksums(const std::string& dir) {
  std::map<std::string, uint32_t> crcs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::string data = bytes.str();
    const std::string name = entry.path().filename().string();
    if (name == storage::kManifestFile && data.size() >= sizeof(uint32_t)) {
      data.resize(data.size() - sizeof(uint32_t));
    }
    crcs[name] = storage::Crc32(data.data(), data.size());
  }
  return crcs;
}

// Pins the format-v3 bytes on disk: a registry store holding every bitmap
// kind and a segmented store must save to exactly these files. A change to
// any index record, the catalog or the segment-file layout shows up here
// as a checksum mismatch, which must come with a format version bump.
TEST_F(StorageRoundTrip, GoldenFileChecksums) {
  ASSERT_EQ(storage::kFormatVersion, 3u);
  Database registry = MakeDatabase(/*seed=*/53);
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical}) {
    ASSERT_TRUE(registry.BuildIndex(kind).ok());
  }
  const std::string registry_dir = StoreDir("golden_registry");
  ASSERT_TRUE(registry.Save(registry_dir).ok());
  const std::map<std::string, uint32_t> registry_expected = {
      {"MANIFEST", 4097409553u},
      {"catalog.1.bin", 1981982931u},
      {"data.1.seg", 527030694u},
  };
  EXPECT_EQ(FileChecksums(registry_dir), registry_expected);

  Database segmented = MakeDatabase(/*seed=*/59);
  SegmentOptions options;
  options.segment_rows = 96;
  options.index_kind = IndexKind::kBitmapHierarchical;
  ASSERT_TRUE(segmented.EnableSegments(options).ok());
  const std::string segmented_dir = StoreDir("golden_segmented");
  ASSERT_TRUE(segmented.Save(segmented_dir).ok());
  const std::map<std::string, uint32_t> segmented_expected = {
      {"MANIFEST", 12297664u},       {"catalog.1.bin", 2940417152u},
      {"data.1.seg", 3907376050u},   {"seg-1.dat", 3990705211u},
      {"seg-2.dat", 3643146726u},    {"seg-3.dat", 2660163075u},
      {"seg-4.dat", 2603519798u},
  };
  EXPECT_EQ(FileChecksums(segmented_dir), segmented_expected);
}

}  // namespace
}  // namespace incdb
