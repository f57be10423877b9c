// QueryStats attribution through the plan layer. The delta scan used to be
// invisible in the counters (tail rows contributed nothing to words_touched
// or any probe counter); now every scan operator charges one rows_scanned
// unit per row and one words_touched unit per cell read, attributed to
// exactly the operator that did the work.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/database.h"
#include "plan/plan.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/expr.h"
#include "table/generator.h"

namespace incdb {
namespace plan {
namespace {

Database MakeIndexedDb() {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(500, 6, 0.2, 3, 907))
                              .value())
          .value();
  EXPECT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  return db;
}

TEST(PlanStatsTest, FullyCoveredQueryScansNoRows) {
  Database db = MakeIndexedDb();
  const auto result = db.Run(QueryRequest::Terms({{"a0", 2, 4}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->chosen_index, "BEE-WAH");
  EXPECT_EQ(result->stats.rows_scanned, 0u);
}

TEST(PlanStatsTest, DeltaRowsAreChargedToTheDeltaScanOperator) {
  Database db = MakeIndexedDb();
  constexpr uint64_t kTail = 40;
  for (uint64_t i = 0; i < kTail; ++i) {
    ASSERT_TRUE(db.Insert({static_cast<Value>(1 + i % 6), kMissingValue,
                           static_cast<Value>(1 + i % 3)})
                    .ok());
  }
  const QueryRequest request =
      QueryRequest::Terms({{"a0", 2, 4}, {"a2", 1, 2}});

  // Top-level accounting: the tail shows up in the query's merged stats.
  const auto result = db.Run(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->chosen_index, "BEE-WAH");
  EXPECT_EQ(result->stats.rows_scanned, kTail);
  // One cell read per row per term, on top of the probe's word traffic.
  EXPECT_GE(result->stats.words_touched, kTail * 2);

  // Per-operator attribution: the charge sits on the DeltaScan node itself,
  // not smeared over the probe.
  const Snapshot snapshot = db.GetSnapshot();
  auto plan = PlanRequest(snapshot, request);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(&plan.value(), ExecOptions()).ok());
  const PlanNode& sink = *plan->root;
  ASSERT_EQ(sink.children.size(), 2u);
  const PlanNode& probe = *sink.children[0];
  const PlanNode& delta = *sink.children[1];
  EXPECT_EQ(probe.kind, OpKind::kIndexProbe);
  EXPECT_EQ(delta.kind, OpKind::kDeltaScan);
  EXPECT_TRUE(delta.realized.executed);
  EXPECT_EQ(delta.begin_row, 500u);
  EXPECT_EQ(delta.end_row, 500u + kTail);
  EXPECT_EQ(delta.realized.stats.rows_scanned, kTail);
  EXPECT_EQ(delta.realized.stats.words_touched, kTail * 2);
  EXPECT_EQ(delta.realized.rows_scanned, kTail);
  EXPECT_GE(delta.realized.morsels, 1u);
  EXPECT_EQ(probe.realized.stats.rows_scanned, 0u);
}

TEST(PlanStatsTest, ExpressionDeltaChargesOneUnitPerLeafCell) {
  Database db = MakeIndexedDb();
  constexpr uint64_t kTail = 12;
  for (uint64_t i = 0; i < kTail; ++i) {
    ASSERT_TRUE(db.Insert({static_cast<Value>(1 + i % 6),
                           static_cast<Value>(1 + i % 4), kMissingValue})
                    .ok());
  }
  // Three leaves: the tail costs 3 cells per row in words_touched.
  const QueryExpr expr = QueryExpr::MakeOr(
      {QueryExpr::MakeAnd({QueryExpr::MakeTerm(0, {2, 4}),
                           QueryExpr::MakeTerm(1, {1, 2})}),
       QueryExpr::MakeNot(QueryExpr::MakeTerm(2, {3, 6}))});
  const Snapshot snapshot = db.GetSnapshot();
  auto plan = PlanRequest(snapshot, QueryRequest::Expression(expr));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(&plan.value(), ExecOptions()).ok());
  const PlanNode& delta = *plan->root->children.at(1);
  EXPECT_EQ(delta.kind, OpKind::kDeltaScan);
  EXPECT_EQ(delta.realized.stats.rows_scanned, kTail);
  EXPECT_EQ(delta.realized.stats.words_touched, kTail * 3);
}

TEST(PlanStatsTest, SeqScanFallbackChargesEveryVisibleRow) {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(200, 5, 0.1, 2, 911))
                              .value())
          .value();  // no index
  const auto result = db.Run(QueryRequest::Terms({{"a0", 1, 3}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->chosen_index, "SeqScan");
  EXPECT_EQ(result->stats.rows_scanned, 200u);
  EXPECT_EQ(result->stats.words_touched, 200u);  // one term = one cell/row
}

TEST(PlanStatsTest, CountDirectSkipsMaterializationButKeepsTheCount) {
  Database db = MakeIndexedDb();
  // Terms, a pure-conjunction expression and the same conjunction as text
  // all lower to one fused probe, so all three count straight off the index.
  const QueryExpr conjunction = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {3, 3}), QueryExpr::MakeTerm(1, {1, 2})});
  for (const QueryRequest& request :
       {QueryRequest::Terms({{"a0", 3, 3}}),
        QueryRequest::Expression(conjunction),
        QueryRequest::Text("a0 = 3 AND a1 IN [1,2]")}) {
    const auto full = db.Run(request);
    const auto counted = db.Run(QueryRequest(request).CountOnly());
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(counted.ok());
    EXPECT_EQ(counted->count, full->count);
    EXPECT_TRUE(counted->row_ids.empty());
    // Full coverage and no deletes: the planner marks the probe
    // count_direct.
    const Snapshot snapshot = db.GetSnapshot();
    auto plan = PlanRequest(snapshot, QueryRequest(request).CountOnly());
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->root->kind, OpKind::kCountSink);
    EXPECT_TRUE(plan->root->children.front()->count_direct);
  }
}

}  // namespace
}  // namespace plan
}  // namespace incdb
