// Persistence and incremental maintenance of the VA-file, through the paths
// the library keeps for them: Database::Save / Open (which reassembles the
// file with VaFile::FromParts against the store's table) and
// Database::Insert followed by BuildIndex.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../storage/temp_store_dir.h"
#include "core/database.h"
#include "core/executor.h"
#include "query/expr.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/format.h"
#include "table/generator.h"
#include "vafile/va_file.h"

namespace incdb {
namespace {

Database FromSpec(const DatasetSpec& spec) {
  return std::move(Database::FromTable(GenerateTable(spec).value()).value());
}

/// The registered index of `kind` as a VaFile, or nullptr.
std::shared_ptr<const VaFile> Registered(const Database& db, IndexKind kind) {
  const Snapshot snapshot = db.GetSnapshot();
  for (const auto& entry : *snapshot.state().indexes) {
    if (entry.kind == kind) {
      return std::dynamic_pointer_cast<const VaFile>(entry.index);
    }
  }
  return nullptr;
}

std::vector<uint32_t> Oracle(const Table& table, uint64_t num_rows,
                             const RangeQuery& query) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (RowMatches(table, r, query)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

using VaPersistenceTest = TempStoreTest<>;

TEST_F(VaPersistenceTest, SaveLoadRoundTrip) {
  const DatasetSpec spec = UniformSpec(1200, 20, 0.2, 4, 301);
  const Table table = GenerateTable(spec).value();
  WorkloadParams params;
  params.num_queries = 15;
  params.dims = 2;
  params.global_selectivity = 0.05;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  // Uniform bins (VA) and equi-depth bins (VA+).
  for (IndexKind kind : {IndexKind::kVaFile, IndexKind::kVaPlusFile}) {
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
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        for (size_t a = 0; a < 4; ++a) {
          ASSERT_EQ(loaded->StoredCode(r, a), original->StoredCode(r, a))
              << "row " << r << " attr " << a;
        }
      }
      EXPECT_TRUE(VerifyAgainstOracle(*loaded, reopened->table(),
                                      queries.value())
                      .ok())
          << loaded->Name();
    }
  }
}

// Open reassembles the VA-file from its parts against the store's table;
// parts that do not fit the table are refused.
TEST_F(VaPersistenceTest, LoadRejectsMismatchedTable) {
  const Table table = GenerateTable(UniformSpec(500, 20, 0.2, 4, 303)).value();
  const VaFile original = VaFile::Build(table).value();
  auto reassemble = [&original](const Table& base) {
    return VaFile::FromParts(&base, original.options(), original.attributes(),
                             original.RowStrideBits(), original.num_rows(),
                             original.packed_view());
  };
  ASSERT_TRUE(reassemble(table).ok());

  // Wrong attribute count.
  const Table narrow = GenerateTable(UniformSpec(500, 20, 0.2, 3, 303)).value();
  EXPECT_FALSE(reassemble(narrow).ok());
  // Wrong cardinality.
  const Table different =
      GenerateTable(UniformSpec(500, 21, 0.2, 4, 303)).value();
  EXPECT_FALSE(reassemble(different).ok());
  // Fewer rows than the approximation covers.
  const Table short_table =
      GenerateTable(UniformSpec(100, 20, 0.2, 4, 303)).value();
  EXPECT_FALSE(reassemble(short_table).ok());
}

TEST_F(VaPersistenceTest, LoadRejectsGarbage) {
  Database db = FromSpec(UniformSpec(10, 5, 0.0, 1, 305));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const std::string dir = StoreDir("va_garbage");
  ASSERT_TRUE(db.Save(dir).ok());
  // The packed approximation array lives in the data file.
  {
    std::ofstream out(dir + "/" + storage::SegmentFileName(1),
                      std::ios::binary | std::ios::trunc);
    out << "nonsense";
  }
  for (bool verify_checksums : {true, false}) {
    EXPECT_FALSE(Database::Open(dir, verify_checksums).ok())
        << "verify=" << verify_checksums;
  }
}

TEST(VaAppendTest, IncrementalEqualsBatchForUniformBins) {
  const Table table = GenerateTable(UniformSpec(1600, 15, 0.3, 3, 307)).value();
  const uint64_t split = 700;
  auto head = Table::Create(table.schema()).value();
  std::vector<Value> row(3);
  for (uint64_t r = 0; r < split; ++r) {
    for (size_t a = 0; a < 3; ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(head.AppendRow(row).ok());
  }
  Database db = std::move(Database::FromTable(std::move(head)).value());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  for (uint64_t r = split; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < 3; ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(db.Insert(row).ok());
  }
  ASSERT_EQ(Registered(db, IndexKind::kVaFile)->num_rows(), split);
  // Uniform bins depend only on the domain, so the rebuild over the grown
  // database must match a batch build code for code.
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const auto rebuilt = Registered(db, IndexKind::kVaFile);
  const VaFile batch = VaFile::Build(table).value();
  ASSERT_EQ(rebuilt->num_rows(), table.num_rows());
  ASSERT_EQ(rebuilt->RowStrideBits(), batch.RowStrideBits());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(rebuilt->StoredCode(r, a), batch.StoredCode(r, a))
          << "row " << r << " attr " << a;
    }
  }
}

TEST(VaAppendTest, RejectsBadRows) {
  Database db = FromSpec(UniformSpec(100, 5, 0.1, 2, 309));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  EXPECT_FALSE(db.Insert({1}).ok());
  EXPECT_FALSE(db.Insert({1, 9}).ok());
  EXPECT_EQ(db.num_rows(), 100u);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  EXPECT_EQ(Registered(db, IndexKind::kVaFile)->num_rows(), 100u);
}

// Rows the table gains after the VA-file was built are outside the file:
// Execute answers (and refines) over its covered rows only, and the
// database serves the newer rows by delta scan.
TEST(VaAppendTest, ExecuteRequiresTableToKeepUp) {
  Database db = FromSpec(UniformSpec(50, 5, 0.1, 2, 311));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  ASSERT_TRUE(db.Insert({2, 3}).ok());
  const auto va = Registered(db, IndexKind::kVaFile);
  ASSERT_EQ(va->num_rows(), 50u);

  RangeQuery q;
  q.terms = {{0, {1, 5}}};
  const auto direct = va->Execute(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->size(), 50u);
  EXPECT_EQ(direct->ToIndices(), Oracle(db.table(), 50, q));

  const auto served = db.Run(QueryRequest::Expression(
      QueryExpr::MakeTerm(0, {1, 5}), q.semantics));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->row_ids, Oracle(db.table(), 51, q));
}

TEST(VaAppendTest, AppendedRowsAreQueryable) {
  auto table = Table::Create(Schema({{"x", 8}})).value();
  for (Value v : {1, 5, kMissingValue}) {
    ASSERT_TRUE(table.AppendRow({v}).ok());
  }
  Database db = std::move(Database::FromTable(std::move(table)).value());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  ASSERT_TRUE(db.Insert({7}).ok());
  const QueryRequest request = QueryRequest::Expression(
      QueryExpr::MakeTerm(0, {6, 8}), MissingSemantics::kNoMatch);
  const auto served = db.Run(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->row_ids, (std::vector<uint32_t>{3}));

  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  RangeQuery q;
  q.terms = {{0, {6, 8}}};
  q.semantics = MissingSemantics::kNoMatch;
  EXPECT_EQ(Registered(db, IndexKind::kVaFile)->Execute(q).value().ToIndices(),
            (std::vector<uint32_t>{3}));
}

}  // namespace
}  // namespace incdb
