// Plan-vs-oracle property suite: every query shape lowered by the planner
// must agree exactly with the row-level oracle (RowMatches / ExprMatches)
// across both missing-data semantics — bare-index plans over all eight
// buildable index kinds and the two prior-work baselines first, then full
// snapshot plans over the eight kinds with appended tails, deletions,
// count-only and parallel execution layered on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "../baselines/test_indexes.h"
#include "core/database.h"
#include "core/index_factory.h"
#include "core/segments.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/expr.h"
#include "table/generator.h"

namespace incdb {
namespace plan {
namespace {

const std::vector<IndexKind> kBuildableKinds = {
    IndexKind::kBitmapEquality,       IndexKind::kBitmapRange,
    IndexKind::kBitmapInterval,       IndexKind::kBitmapBitSliced,
    IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
    IndexKind::kVaFile,               IndexKind::kVaPlusFile,
};

// Conjunctive fixtures over three attributes with cardinality 6: point,
// one-dimensional range, multi-dimensional, full-domain, three-dimensional.
std::vector<std::vector<QueryTerm>> TermFixtures() {
  return {
      {{0, {3, 3}}},
      {{1, {2, 5}}},
      {{0, {2, 4}}, {2, {1, 3}}},
      {{0, {1, 6}}},
      {{0, {4, 4}}, {1, {1, 2}}, {2, {5, 6}}},
  };
}

// Boolean fixtures exercising every operator plus nesting (NOT under OR,
// NOT over AND, repeated attributes).
std::vector<QueryExpr> ExprFixtures() {
  const QueryExpr t0 = QueryExpr::MakeTerm(0, {2, 4});
  const QueryExpr t1 = QueryExpr::MakeTerm(1, {3, 6});
  const QueryExpr t2 = QueryExpr::MakeTerm(2, {1, 2});
  return {
      t0,
      QueryExpr::MakeAnd({t0, t1}),
      QueryExpr::MakeOr({t0, t2}),
      QueryExpr::MakeNot(t0),
      QueryExpr::MakeAnd({t0, QueryExpr::MakeNot(t1)}),
      QueryExpr::MakeNot(QueryExpr::MakeOr({t0, QueryExpr::MakeAnd({t1, t2})})),
      QueryExpr::MakeOr({QueryExpr::MakeAnd({t0, t1}),
                         QueryExpr::MakeNot(QueryExpr::MakeAnd({t1, t2}))}),
  };
}

std::vector<uint32_t> OracleTerms(const Table& table, const RangeQuery& query) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (RowMatches(table, r, query)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

std::vector<uint32_t> OracleExpr(const Table& table, const QueryExpr& expr,
                                 MissingSemantics semantics) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (ExprMatches(table, r, expr, semantics)) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

// Test names: the index name with '-', '+' and ' ' as '_'.
std::string ParamName(std::string_view name) {
  std::string param(name);
  for (char& c : param) {
    if (c == '-' || c == '+' || c == ' ') c = '_';
  }
  return param;
}

class PlanPropertyTest : public ::testing::TestWithParam<TestIndex> {};

TEST_P(PlanPropertyTest, BareRangePlansAgreeWithOracle) {
  const Table table = GenerateTable(UniformSpec(400, 6, 0.25, 3, 611)).value();
  const auto index = GetParam().build(table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::vector<QueryTerm>& terms : TermFixtures()) {
      RangeQuery query;
      query.terms = terms;
      query.semantics = semantics;
      auto plan = PlanRangeOverIndex(*index, query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      QueryStats stats;
      auto answer = ExecutePlanToBitVector(&plan.value(), &stats);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->ToIndices(), OracleTerms(table, query))
          << index->Name() << " on " << query.ToString();
    }
  }
}

TEST_P(PlanPropertyTest, BareExpressionPlansAgreeWithOracle) {
  const Table table = GenerateTable(UniformSpec(400, 6, 0.25, 3, 613)).value();
  const auto index = GetParam().build(table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const QueryExpr& expr : ExprFixtures()) {
      auto plan = PlanExprOverIndex(*index, expr, semantics);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto answer = ExecutePlanToBitVector(&plan.value());
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->ToIndices(), OracleExpr(table, expr, semantics))
          << index->Name() << " [" << MissingSemanticsToString(semantics)
          << "] on " << expr.ToString();
    }
  }
}

// Appends `count` rows with missing cells in attribute 1, starting from
// pattern position `first`.
void AppendTail(Database* db, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    const std::vector<Value> row = {
        static_cast<Value>(1 + i % 6),
        i % 3 == 0 ? kMissingValue : static_cast<Value>(1 + (i * 5) % 6),
        static_cast<Value>(1 + i % 2)};
    ASSERT_TRUE(db->Insert(row).ok());
  }
}

Database IndexedDatabase(uint64_t rows, uint64_t seed, IndexKind kind) {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(rows, 6, 0.25, 3, seed))
                              .value())
          .value();
  EXPECT_TRUE(db.BuildIndex(kind).ok());
  return db;
}

// Every fixture through Database::Run — serial, parallel and count-only —
// against the oracle over the live rows.
void ExpectRunsAgreeWithOracle(const Database& db) {
  const auto oracle = [&db](auto matches) {
    std::vector<uint32_t> rows;
    for (uint64_t r = 0; r < db.num_rows(); ++r) {
      if (!db.IsDeleted(static_cast<uint32_t>(r)) && matches(r)) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    return rows;
  };

  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::vector<QueryTerm>& terms : TermFixtures()) {
      RangeQuery query;
      query.terms = terms;
      query.semantics = semantics;
      std::vector<NamedTerm> named;
      for (const QueryTerm& term : terms) {
        named.push_back({"a" + std::to_string(term.attribute),
                         term.interval.lo, term.interval.hi});
      }
      const auto expected = oracle(
          [&](uint64_t r) { return RowMatches(db.table(), r, query); });

      const auto serial = db.Run(QueryRequest::Terms(named, semantics));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_EQ(serial->row_ids, expected) << query.ToString();

      const auto parallel =
          db.Run(QueryRequest::Terms(named, semantics).Parallel(4));
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->row_ids, expected) << query.ToString();

      const auto counted =
          db.Run(QueryRequest::Terms(named, semantics).CountOnly());
      ASSERT_TRUE(counted.ok());
      EXPECT_EQ(counted->count, expected.size()) << query.ToString();
      EXPECT_TRUE(counted->row_ids.empty());
    }

    for (const QueryExpr& expr : ExprFixtures()) {
      const auto expected = oracle([&](uint64_t r) {
        return ExprMatches(db.table(), r, expr, semantics);
      });
      const auto serial = db.Run(QueryRequest::Expression(expr, semantics));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_EQ(serial->row_ids, expected) << expr.ToString();
      const auto parallel =
          db.Run(QueryRequest::Expression(expr, semantics).Parallel(4));
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->row_ids, expected) << expr.ToString();
      for (const size_t threads : {1, 4}) {
        const auto counted = db.Run(
            QueryRequest::Expression(expr, semantics).CountOnly().Parallel(
                threads));
        ASSERT_TRUE(counted.ok());
        EXPECT_EQ(counted->count, expected.size())
            << expr.ToString() << " on " << threads << " threads";
        EXPECT_TRUE(counted->row_ids.empty());
      }
    }

    // Text lowers through the same expression path.
    const QueryExpr text_equivalent = QueryExpr::MakeAnd(
        {QueryExpr::MakeTerm(0, {2, 4}),
         QueryExpr::MakeNot(QueryExpr::MakeTerm(1, {3, 3}))});
    const auto expected = oracle([&](uint64_t r) {
      return ExprMatches(db.table(), r, text_equivalent, semantics);
    });
    const auto text =
        db.Run(QueryRequest::Text("a0 IN [2,4] AND NOT a1 = 3", semantics));
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(text->row_ids, expected);
  }
}

// Snapshot plans go through Database::BuildIndex, so they cover the served
// kinds only.
class SnapshotPlanPropertyTest : public ::testing::TestWithParam<IndexKind> {
};

// End-to-end through Database::Run: index + appended tail (delta scan) +
// deletions, under serial, parallel, and count-only execution. The tails
// are shaped for the scan's word kernel: each has an odd length, all but
// the segmented reopen start mid-word, and between them they cross 64-row
// words, a column heap-block boundary, a reopened store's borrowed cells
// onto the heap, and a morsel boundary.
TEST_P(SnapshotPlanPropertyTest,
       SnapshotPlansAgreeWithOracleUnderDeltaAndDeletes) {
  {
    SCOPED_TRACE("25-row tail over rows [300, 325)");
    Database db = IndexedDatabase(300, 617, GetParam());
    AppendTail(&db, 0, 25);
    // Deletions on both sides of the coverage boundary.
    ASSERT_TRUE(db.Delete(3).ok());
    ASSERT_TRUE(db.Delete(108).ok());
    ASSERT_TRUE(db.Delete(310).ok());
    ExpectRunsAgreeWithOracle(db);
  }
  {
    // Generated columns fill heap blocks of 1Ki, then 2Ki rows.
    SCOPED_TRACE("tail across the column's 1Ki -> 2Ki heap-block boundary");
    Database db = IndexedDatabase(300, 619, GetParam());
    AppendTail(&db, 0, 851);
    ASSERT_TRUE(db.Delete(1023).ok());
    ASSERT_TRUE(db.Delete(1024).ok());
    ExpectRunsAgreeWithOracle(db);
  }
  {
    SCOPED_TRACE("reopened store: borrowed tail cells, then heap appends");
    Database db = IndexedDatabase(300, 621, GetParam());
    AppendTail(&db, 0, 25);
    if (IsSegmentIndexKind(GetParam())) {
      // Seals rows [0, 256) as one segment; the reopened columns stitch the
      // segment's cells and the unsealed tail from two extents.
      SegmentOptions segments;
      segments.segment_rows = 256;
      segments.index_kind = GetParam();
      ASSERT_TRUE(db.EnableSegments(segments).ok());
    }
    const std::string dir = ::testing::TempDir() + "plan_property_" +
                            std::to_string(getpid()) + "_" +
                            std::string(IndexKindToString(GetParam()));
    ASSERT_TRUE(db.Save(dir).ok());
    {
      auto reopened = Database::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      // The word of rows [320, 384) holds borrowed and heap cells.
      AppendTail(&reopened.value(), 25, 160);
      ASSERT_TRUE(reopened->Delete(320).ok());
      ExpectRunsAgreeWithOracle(*reopened);
    }
    std::filesystem::remove_all(dir);
  }
  {
    // Count-only plans count straight off the index only here: it covers
    // every row and nothing is deleted.
    SCOPED_TRACE("full coverage, no deletes");
    Database db = IndexedDatabase(300, 625, GetParam());
    const QueryRequest conjunction =
        QueryRequest::Expression(
            QueryExpr::MakeAnd({QueryExpr::MakeTerm(0, {3, 3}),
                                QueryExpr::MakeTerm(2, {1, 2})}))
            .CountOnly();
    const auto counts_directly = [&conjunction](const Database& served) {
      auto plan = PlanRequest(served.GetSnapshot(), conjunction);
      return plan.ok() && plan->root->children.front()->count_direct;
    };
    EXPECT_TRUE(counts_directly(db));
    ExpectRunsAgreeWithOracle(db);
    if (IsSegmentIndexKind(GetParam())) {
      SCOPED_TRACE("segments sealing every row");
      SegmentOptions segments;
      segments.segment_rows = 100;
      segments.index_kind = GetParam();
      ASSERT_TRUE(db.EnableSegments(segments).ok());
      ASSERT_EQ(db.GetSnapshot().sealed_rows(), db.num_rows());
      EXPECT_TRUE(counts_directly(db));
      ExpectRunsAgreeWithOracle(db);
    }
  }
  {
    // Database::Run uses 64Ki-row morsels, so Parallel(4) splits this tail
    // into two morsels.
    SCOPED_TRACE("tail across the morsel boundary at row 65536");
    Database db = IndexedDatabase(65500, 623, GetParam());
    AppendTail(&db, 0, 101);
    ASSERT_TRUE(db.Delete(65535).ok());
    ExpectRunsAgreeWithOracle(db);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PlanPropertyTest,
    ::testing::ValuesIn(WithBaselines(kBuildableKinds)),
    [](const ::testing::TestParamInfo<TestIndex>& info) {
      return ParamName(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SnapshotPlanPropertyTest, ::testing::ValuesIn(kBuildableKinds),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return ParamName(IndexKindToString(info.param));
    });

}  // namespace
}  // namespace plan
}  // namespace incdb
