// Persistence and incremental maintenance of the bitmap index, through the
// paths the library keeps for them: Database::Save / Open for persistence,
// and Database::Insert followed by BuildIndex for rows appended after an
// index was built. The strongest properties: a rebuilt index over a grown
// database is bit-identical to a batch-built one, and a loaded index
// answers every query exactly like the original.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../storage/temp_store_dir.h"
#include "bitmap/bitmap_index.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/index_factory.h"
#include "query/expr.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/format.h"
#include "table/generator.h"

namespace incdb {
namespace {

constexpr IndexKind kDirectKinds[] = {
    IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
    IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced};

Database FromSpec(const DatasetSpec& spec) {
  return std::move(Database::FromTable(GenerateTable(spec).value()).value());
}

/// The registered index of `kind` as a BitmapIndex, or nullptr.
std::shared_ptr<const BitmapIndex> Registered(const Database& db,
                                              IndexKind kind) {
  const Snapshot snapshot = db.GetSnapshot();
  for (const auto& entry : *snapshot.state().indexes) {
    if (entry.kind == kind) {
      return std::dynamic_pointer_cast<const BitmapIndex>(entry.index);
    }
  }
  return nullptr;
}

/// Every stored bitvector of `actual` equals the one of `expected`.
void ExpectSameBitmaps(const BitmapIndex& actual, const BitmapIndex& expected) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  ASSERT_EQ(actual.attributes().size(), expected.attributes().size());
  for (size_t a = 0; a < expected.attributes().size(); ++a) {
    const auto& got = actual.attributes()[a];
    const auto& want = expected.attributes()[a];
    ASSERT_EQ(actual.NumBitmaps(a), expected.NumBitmaps(a)) << "attr " << a;
    ASSERT_EQ(got.axes.size(), want.axes.size()) << "attr " << a;
    for (size_t axis = 0; axis < want.axes.size(); ++axis) {
      ASSERT_EQ(got.axes[axis].size(), want.axes[axis].size());
      for (size_t j = 0; j < want.axes[axis].size(); ++j) {
        EXPECT_TRUE(got.axes[axis][j] == want.axes[axis][j])
            << "attr " << a << " axis " << axis << " bitmap " << j;
      }
    }
    ASSERT_EQ(got.missing.has_value(), want.missing.has_value())
        << "attr " << a;
    if (want.missing.has_value()) {
      EXPECT_TRUE(*got.missing == *want.missing) << "attr " << a;
    }
  }
}

std::vector<RangeQuery> Workload(const Table& table, size_t num_queries,
                                 size_t dims) {
  WorkloadParams params;
  params.num_queries = num_queries;
  params.dims = dims;
  params.global_selectivity = 0.05;
  return GenerateWorkload(table, params).value();
}

QueryRequest AsRequest(const RangeQuery& query) {
  std::vector<QueryExpr> terms;
  for (const QueryTerm& term : query.terms) {
    terms.push_back(QueryExpr::MakeTerm(term.attribute, term.interval));
  }
  QueryExpr expr =
      terms.size() == 1 ? terms[0] : QueryExpr::MakeAnd(std::move(terms));
  return QueryRequest::Expression(std::move(expr), query.semantics);
}

std::vector<uint32_t> Oracle(const Table& table, const RangeQuery& query) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (RowMatches(table, r, query)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

using BitmapPersistenceTest = TempStoreTest<>;

TEST_F(BitmapPersistenceTest, SaveLoadRoundTripBothEncodings) {
  const DatasetSpec spec = UniformSpec(1500, 12, 0.25, 4, 201);
  const Table table = GenerateTable(spec).value();
  const std::vector<RangeQuery> queries = Workload(table, 20, 3);
  for (IndexKind kind : kDirectKinds) {
    Database db = FromSpec(spec);
    ASSERT_TRUE(db.BuildIndex(kind).ok());
    const auto original = Registered(db, kind);
    ASSERT_NE(original, nullptr);
    const std::string dir = StoreDir(std::string(IndexKindToString(kind)));
    ASSERT_TRUE(db.Save(dir).ok());
    for (bool verify_checksums : {true, false}) {
      auto reopened = Database::Open(dir, verify_checksums);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      const auto loaded = Registered(*reopened, kind);
      ASSERT_NE(loaded, nullptr) << IndexKindToString(kind);
      EXPECT_EQ(loaded->Name(), original->Name());
      EXPECT_EQ(loaded->SizeInBytes(), original->SizeInBytes());
      EXPECT_EQ(loaded->num_rows(), original->num_rows());
      ExpectSameBitmaps(*loaded, *original);
      EXPECT_TRUE(VerifyAgainstOracle(*loaded, table, queries).ok())
          << loaded->Name();
    }
  }
}

TEST_F(BitmapPersistenceTest, OnDiskSizeTracksSizeInBytes) {
  const DatasetSpec spec = UniformSpec(5000, 30, 0.2, 3, 203);
  Database bare = FromSpec(spec);
  Database indexed = FromSpec(spec);
  ASSERT_TRUE(indexed.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(bare.Save(StoreDir("bare")).ok());
  ASSERT_TRUE(indexed.Save(StoreDir("indexed")).ok());
  // The index's share of the store = payload + per-bitmap records and
  // alignment; the paper's metric is the bytes on disk, so the overhead
  // must stay small.
  const uint64_t index_bytes =
      DirectoryBytes(StoreDir("indexed")) - DirectoryBytes(StoreDir("bare"));
  const uint64_t size = indexed.IndexSizeInBytes();
  EXPECT_GE(index_bytes, size);
  EXPECT_LT(index_bytes, size + size / 2 + 4096);
}

TEST_F(BitmapPersistenceTest, LoadRejectsGarbage) {
  Database db = FromSpec(UniformSpec(300, 10, 0.2, 2, 205));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const std::string dir = StoreDir("garbage");
  ASSERT_TRUE(db.Save(dir).ok());
  for (const std::string& file :
       {storage::CatalogFileName(1), storage::SegmentFileName(1)}) {
    const std::string path = dir + "/" + file;
    const std::string pristine = ReadFile(path);
    WriteFile(path, "this is not an index");
    for (bool verify_checksums : {true, false}) {
      EXPECT_FALSE(Database::Open(dir, verify_checksums).ok())
          << file << " verify=" << verify_checksums;
    }
    WriteFile(path, pristine);
  }
  EXPECT_TRUE(Database::Open(dir).ok());
  EXPECT_FALSE(Database::Open("/nonexistent/nope.incdb").ok());
}

TEST_F(BitmapPersistenceTest, LoadRejectsTruncatedFile) {
  Database db = FromSpec(UniformSpec(1000, 10, 0.2, 2, 205));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const std::string dir = StoreDir("trunc");
  ASSERT_TRUE(db.Save(dir).ok());
  // The bitmap payloads live in the data file.
  const std::string path = dir + "/" + storage::SegmentFileName(1);
  std::string bytes = ReadFile(path);
  bytes.resize(bytes.size() * 2 / 3);
  WriteFile(path, bytes);
  for (bool verify_checksums : {true, false}) {
    EXPECT_FALSE(Database::Open(dir, verify_checksums).ok())
        << "verify=" << verify_checksums;
  }
}

// Build on the first rows, Insert the rest row by row (across the table's
// 1Ki-row storage block boundary), then rebuild: the registered index must
// equal a batch build over the whole table, bitmap for bitmap, for every
// bitmap kind.
class BitmapAppendTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(BitmapAppendTest, IncrementalEqualsBatch) {
  const IndexKind kind = GetParam();
  const Table table = GenerateTable(UniformSpec(1600, 9, 0.3, 4, 207)).value();
  const uint64_t split = 700;

  auto head = Table::Create(table.schema()).value();
  std::vector<Value> row(table.num_attributes());
  for (uint64_t r = 0; r < split; ++r) {
    for (size_t a = 0; a < row.size(); ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(head.AppendRow(row).ok());
  }
  Database db = std::move(Database::FromTable(std::move(head)).value());
  ASSERT_TRUE(db.BuildIndex(kind).ok());
  for (uint64_t r = split; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < row.size(); ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(db.Insert(row).ok());
  }
  // Until the rebuild the index covers the first rows only; the planner
  // serves the inserted ones by delta scan.
  ASSERT_EQ(Registered(db, kind)->num_rows(), split);
  for (const RangeQuery& query : Workload(table, 10, 2)) {
    const auto answer = db.Run(AsRequest(query));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->row_ids, Oracle(table, query)) << query.ToString();
  }

  ASSERT_TRUE(db.BuildIndex(kind).ok());
  const auto rebuilt = Registered(db, kind);
  ASSERT_NE(rebuilt, nullptr);
  const auto batch = CreateIndex(kind, table);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto* batch_bitmap = dynamic_cast<const BitmapIndex*>(batch->get());
  ASSERT_NE(batch_bitmap, nullptr);
  EXPECT_EQ(rebuilt->Name(), batch_bitmap->Name());
  ExpectSameBitmaps(*rebuilt, *batch_bitmap);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, BitmapAppendTest,
    ::testing::Values(IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                      IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
                      IndexKind::kBitmapMultiComponent,
                      IndexKind::kBitmapHierarchical));

TEST(BitmapAppendValidationTest, RejectsBadRows) {
  Database db = FromSpec(UniformSpec(100, 5, 0.1, 2, 209));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  EXPECT_FALSE(db.Insert({1}).ok());     // wrong arity
  EXPECT_FALSE(db.Insert({1, 9}).ok());  // out of domain
  EXPECT_EQ(db.num_rows(), 100u);        // unchanged
  EXPECT_TRUE(db.Insert({kMissingValue, 3}).ok());
  EXPECT_EQ(db.num_rows(), 101u);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  EXPECT_EQ(Registered(db, IndexKind::kBitmapEquality)->num_rows(), 101u);
}

TEST(BitmapAppendValidationTest, FirstMissingValueCreatesMissingBitmap) {
  Database db = FromSpec(UniformSpec(50, 5, 0.0, 1, 211));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  EXPECT_EQ(Registered(db, IndexKind::kBitmapEquality)->missing_bitmap(0),
            nullptr);
  ASSERT_TRUE(db.Insert({kMissingValue}).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const auto index = Registered(db, IndexKind::kBitmapEquality);
  const WahBitVector* missing = index->missing_bitmap(0);
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->size(), 51u);
  EXPECT_EQ(missing->Count(), 1u);
  EXPECT_TRUE(missing->Get(50));
}

TEST(BitmapAppendValidationTest, AppendedIndexAnswersQueries) {
  Database db = FromSpec(UniformSpec(500, 8, 0.25, 3, 213));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert({static_cast<Value>(1 + i % 8), kMissingValue,
                           static_cast<Value>(1 + (i * 3) % 8)})
                    .ok());
  }
  const Table& grown = db.table();
  const std::vector<RangeQuery> queries = Workload(grown, 15, 2);
  // Index over the first 500 rows plus the delta scan over the rest.
  for (const RangeQuery& query : queries) {
    const auto answer = db.Run(AsRequest(query));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->row_ids, Oracle(grown, query)) << query.ToString();
  }
  // The rebuilt index covers every row on its own.
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const auto index = Registered(db, IndexKind::kBitmapEquality);
  EXPECT_EQ(index->num_rows(), 600u);
  EXPECT_TRUE(VerifyAgainstOracle(*index, grown, queries).ok());
}

}  // namespace
}  // namespace incdb
