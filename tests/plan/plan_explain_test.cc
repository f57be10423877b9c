// EXPLAIN rendering: the string in QueryResult::explain must describe the
// plan that actually ran — the chosen index, the operator tree, estimated
// vs realized selectivity, and the delta scan when a tail exists.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "core/segments.h"
#include "table/generator.h"

namespace incdb {
namespace {

Database MakeDb() {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(400, 6, 0.2, 3, 1009))
                              .value())
          .value();
  EXPECT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  return db;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PlanExplainTest, EmptyUnlessRequested) {
  Database db = MakeDb();
  const auto plain = db.Run(QueryRequest::Terms({{"a0", 2, 4}}));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->explain.empty());
  const auto explained = db.Run(QueryRequest::Terms({{"a0", 2, 4}}).Explain());
  ASSERT_TRUE(explained.ok());
  EXPECT_FALSE(explained->explain.empty());
}

TEST(PlanExplainTest, ShowsTheExecutedProbeWithEstimatedAndRealizedFigures) {
  Database db = MakeDb();
  const auto result = db.Run(QueryRequest::Terms({{"a0", 2, 4}}).Explain());
  ASSERT_TRUE(result.ok());
  const std::string& explain = result->explain;
  EXPECT_TRUE(Contains(explain, "MaterializeSink")) << explain;
  // The explained probe names the index the router actually chose.
  EXPECT_TRUE(Contains(explain, "IndexProbe " + result->chosen_index))
      << explain;
  EXPECT_TRUE(Contains(explain, "est_sel=")) << explain;
  EXPECT_TRUE(Contains(explain, " sel=")) << explain;
  EXPECT_TRUE(Contains(explain, " rows=" + std::to_string(result->count)))
      << explain;
  EXPECT_FALSE(Contains(explain, "(not executed)")) << explain;
}

TEST(PlanExplainTest, DeltaScanAppearsExactlyWhenATailExists) {
  Database db = MakeDb();
  const auto covered = db.Run(QueryRequest::Terms({{"a0", 2, 4}}).Explain());
  ASSERT_TRUE(covered.ok());
  EXPECT_FALSE(Contains(covered->explain, "DeltaScan")) << covered->explain;

  ASSERT_TRUE(db.Insert({1, 2, 3}).ok());
  ASSERT_TRUE(db.Insert({kMissingValue, 5, 1}).ok());
  const auto tailed = db.Run(QueryRequest::Terms({{"a0", 2, 4}}).Explain());
  ASSERT_TRUE(tailed.ok());
  EXPECT_TRUE(Contains(tailed->explain, "DeltaScan rows [400,402)"))
      << tailed->explain;
  EXPECT_TRUE(Contains(tailed->explain, "scanned=2")) << tailed->explain;
}

TEST(PlanExplainTest, ScanFallbackAndCountSinkRender) {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(100, 5, 0.1, 2, 1013))
                              .value())
          .value();  // no index
  const auto result =
      db.Run(QueryRequest::Terms({{"a0", 1, 3}}).CountOnly().Explain());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Contains(result->explain, "CountSink")) << result->explain;
  EXPECT_TRUE(Contains(result->explain, "SeqScan rows [0,100)"))
      << result->explain;
}

TEST(PlanExplainTest, ExpressionTreeRendersOperatorsAndFlippedSemantics) {
  Database db = MakeDb();
  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {2, 4}),
       QueryExpr::MakeNot(QueryExpr::MakeTerm(1, {3, 3}))});
  const auto result = db.Run(
      QueryRequest::Expression(expr, MissingSemantics::kMatch).Explain());
  ASSERT_TRUE(result.ok());
  const std::string& explain = result->explain;
  EXPECT_TRUE(Contains(explain, "And")) << explain;
  EXPECT_TRUE(Contains(explain, "Not")) << explain;
  // The probe under NOT computes the flipped Kleene component: a kMatch
  // request evaluates certain(child) there, rendered as [no-match].
  EXPECT_TRUE(Contains(explain, "[no-match] A1 in [3,3]")) << explain;
  EXPECT_TRUE(Contains(explain, "[match] A0 in [2,4]")) << explain;
}

TEST(PlanExplainTest, ParallelConjunctionShowsPerDimensionProbes) {
  Database db = MakeDb();
  const auto result = db.Run(
      QueryRequest::Terms({{"a0", 2, 4}, {"a1", 1, 3}}).Parallel(4).Explain());
  ASSERT_TRUE(result.ok());
  const std::string& explain = result->explain;
  // Split into an And of single-term probes so dimensions run concurrently.
  EXPECT_TRUE(Contains(explain, "And")) << explain;
  EXPECT_TRUE(Contains(explain, "A0 in [2,4]")) << explain;
  EXPECT_TRUE(Contains(explain, "A1 in [1,3]")) << explain;
}

TEST(PlanExplainTest, SegmentedStoreRendersSegmentProbeAndCounters) {
  // Rows [0, 100) are random; rows [100, 400) hold a0 = 1, 2, 3 in blocks of
  // 100 with a0 never missing, so with 100-row segments the zone maps prune
  // the two segments without a0 = 3.
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(100, 6, 0.2, 3, 1019))
                              .value())
          .value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.Insert({static_cast<Value>(1 + i / 100),
                           static_cast<Value>(1 + i % 6), kMissingValue})
                    .ok());
  }
  SegmentOptions segments;
  segments.segment_rows = 100;
  segments.index_kind = IndexKind::kBitmapEquality;
  ASSERT_TRUE(db.EnableSegments(segments).ok());
  ASSERT_EQ(db.GetSnapshot().sealed_rows(), 400u);

  const QueryRequest request = QueryRequest::Terms({{"a0", 3, 3}}).Explain();
  const auto sealed = db.Run(request);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ(sealed->chosen_index, "SEG[BEE-WAH]");
  const std::string& explain = sealed->explain;
  EXPECT_TRUE(
      Contains(explain, "SegmentProbe BEE-WAH [match] A0 in [3,3] segs=2/4"))
      << explain;
  EXPECT_TRUE(Contains(explain, " segs=2 pruned=2")) << explain;
  EXPECT_FALSE(Contains(explain, "DeltaScan")) << explain;

  ASSERT_TRUE(db.Insert({3, 1, 1}).ok());
  const auto tailed = db.Run(request);
  ASSERT_TRUE(tailed.ok());
  EXPECT_TRUE(Contains(tailed->explain, "segs=2/4")) << tailed->explain;
  EXPECT_TRUE(Contains(tailed->explain, "DeltaScan rows [400,401)"))
      << tailed->explain;
  EXPECT_EQ(tailed->count, sealed->count + 1);

  // Sealing the tail takes the DeltaScan away again.
  for (int i = 1; i < 100; ++i) {
    ASSERT_TRUE(db.Insert({1, 1, 1}).ok());
  }
  ASSERT_EQ(db.GetSnapshot().sealed_rows(), 500u);
  const auto resealed = db.Run(request);
  ASSERT_TRUE(resealed.ok());
  EXPECT_TRUE(Contains(resealed->explain, "segs=3/5")) << resealed->explain;
  EXPECT_FALSE(Contains(resealed->explain, "DeltaScan")) << resealed->explain;
  EXPECT_EQ(resealed->count, tailed->count);
}

}  // namespace
}  // namespace incdb
