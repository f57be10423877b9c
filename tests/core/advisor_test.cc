// Index advisor: predicted sizes must track the real indexes, and the
// recommendations must reproduce the paper's guidance (BEE for points,
// BRE for ranges, small indexes under tight memory budgets).

#include "core/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

/// The query IndexAdvisor::Estimate prices a profile on: one term on each
/// leading attribute, as wide as the profile's selectivity makes it,
/// centred in the domain with the odd value left over above it.
QueryRequest ProfileRequest(const Table& table,
                            const WorkloadProfile& profile) {
  std::vector<NamedTerm> terms;
  for (size_t a = 0; a < std::min(profile.dims, table.num_attributes());
       ++a) {
    const AttributeSpec& spec = table.schema().attribute(a);
    const Value cardinality = static_cast<Value>(spec.cardinality);
    const Value width =
        profile.point_queries
            ? 1
            : std::clamp(static_cast<Value>(std::lround(
                             profile.attribute_selectivity * cardinality)),
                         Value{1}, cardinality);
    const Value lo = 1 + (cardinality - width) / 2;
    terms.push_back({spec.name, lo, lo + width - 1});
  }
  return QueryRequest::Terms(std::move(terms), profile.semantics);
}

/// A store holding every kind the router can serve.
Database DatabaseWithEveryKind(const Table& table) {
  Database db = Database::FromTable(table).value();
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
        IndexKind::kVaFile, IndexKind::kVaPlusFile}) {
    EXPECT_TRUE(db.BuildIndex(kind).ok()) << IndexKindToString(kind);
  }
  return db;
}

/// One cost model: the router serves the profile's query from the kind the
/// advisor recommends, at the cost the advisor predicted for that kind.
void ExpectRouterServesRecommendation(const Database& db,
                                      const IndexAdvisor& advisor,
                                      const WorkloadProfile& profile) {
  const Result<QueryResult> result =
      db.Run(ProfileRequest(db.table(), profile));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RoutingDecision& routing = result.value().routing;
  const IndexKind pick = advisor.Recommend(profile);
  EXPECT_EQ(routing.index_kind, pick)
      << "router " << IndexKindToString(routing.index_kind) << ", advisor "
      << IndexKindToString(pick);
  EXPECT_EQ(routing.estimated_cost,
            advisor.Estimate(pick, profile).query_cost);
}

TEST(AdvisorTest, SizePredictionsTrackRealSizesOnUniformData) {
  const Table table = GenerateTable(UniformSpec(20000, 20, 0.2, 6, 921)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kVaFile}) {
    const double predicted = advisor.Estimate(kind, profile).size_bytes;
    const double actual = static_cast<double>(
        CreateIndex(kind, table).value()->SizeInBytes());
    EXPECT_NEAR(predicted / actual, 1.0, 0.45) << IndexKindToString(kind);
  }
}

TEST(AdvisorTest, SizePredictionsTrackRealSizesOnSkewedData) {
  DatasetSpec spec = UniformSpec(20000, 50, 0.3, 4, 923);
  for (auto& attr : spec.attributes) attr.zipf_theta = 1.2;
  const Table table = GenerateTable(spec).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  // The histogram-driven model must see the skew: equality bitmaps of rare
  // values compress, so predicted BEE size must drop well below verbatim.
  const double predicted_bee =
      advisor.Estimate(IndexKind::kBitmapEquality, profile).size_bytes;
  const double actual_bee = static_cast<double>(
      CreateIndex(IndexKind::kBitmapEquality, table).value()->SizeInBytes());
  EXPECT_NEAR(predicted_bee / actual_bee, 1.0, 0.5);
}

TEST(AdvisorTest, ScanAlwaysQualifiesAndHasZeroSize) {
  const Table table = GenerateTable(UniformSpec(500, 10, 0.1, 3, 925)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  const auto ranked = advisor.Rank(profile, /*memory_budget_bytes=*/0.0);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked.front().kind, IndexKind::kSequentialScan);
  EXPECT_DOUBLE_EQ(ranked.front().size_bytes, 0.0);
}

TEST(AdvisorTest, RecommendsBitmapOverScanAtScale) {
  const Table table = GenerateTable(UniformSpec(50000, 10, 0.2, 8, 927)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.dims = 4;
  profile.attribute_selectivity = 0.2;
  const IndexKind pick = advisor.Recommend(profile);
  EXPECT_NE(pick, IndexKind::kSequentialScan);
  ExpectRouterServesRecommendation(DatabaseWithEveryKind(table), advisor,
                                   profile);
}

TEST(AdvisorTest, RouterServesRecommendedKindAtPredictedCost) {
  const Table table = GenerateTable(UniformSpec(20000, 20, 0.2, 8, 941)).value();
  const IndexAdvisor advisor(table);
  const Database db = DatabaseWithEveryKind(table);
  struct Shape {
    const char* label;
    size_t dims;
    bool point_queries;
    double attribute_selectivity;
  };
  for (const Shape& shape : {Shape{"point_4d", 4, true, 0.0},
                             Shape{"narrow_range_4d", 4, false, 0.10},
                             Shape{"wide_range_4d", 4, false, 0.50},
                             Shape{"range_8d", 8, false, 0.20}}) {
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      SCOPED_TRACE(std::string(shape.label) + " " +
                   std::string(MissingSemanticsToString(semantics)));
      WorkloadProfile profile;
      profile.dims = shape.dims;
      profile.point_queries = shape.point_queries;
      profile.attribute_selectivity = shape.attribute_selectivity;
      profile.semantics = semantics;
      ExpectRouterServesRecommendation(db, advisor, profile);
    }
  }
}

TEST(AdvisorTest, RangeQueriesPreferRangeFamilyOverEquality) {
  // Paper §5.3/§6: BRE (and BIE) beat BEE for wide ranges on
  // mid-cardinality attributes.
  const Table table = GenerateTable(UniformSpec(50000, 50, 0.1, 6, 929)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile range_profile;
  range_profile.attribute_selectivity = 0.4;
  range_profile.dims = 4;
  const double bee =
      advisor.Estimate(IndexKind::kBitmapEquality, range_profile).query_cost;
  const double bre =
      advisor.Estimate(IndexKind::kBitmapRange, range_profile).query_cost;
  const double bie =
      advisor.Estimate(IndexKind::kBitmapInterval, range_profile).query_cost;
  EXPECT_LT(bre, bee);
  EXPECT_LT(bie, bee);
}

TEST(AdvisorTest, PointQueriesRateEqualityWell) {
  const Table table = GenerateTable(UniformSpec(50000, 50, 0.1, 6, 931)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile point_profile;
  point_profile.point_queries = true;
  point_profile.dims = 4;
  const double bee =
      advisor.Estimate(IndexKind::kBitmapEquality, point_profile).query_cost;
  const double bsl =
      advisor.Estimate(IndexKind::kBitmapBitSliced, point_profile).query_cost;
  const double va =
      advisor.Estimate(IndexKind::kVaFile, point_profile).query_cost;
  EXPECT_LT(bee, bsl);
  EXPECT_LT(bee, va);
}

TEST(AdvisorTest, TightMemoryBudgetFallsBackToSmallIndexes) {
  const Table table =
      GenerateTable(UniformSpec(50000, 100, 0.1, 6, 933)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.attribute_selectivity = 0.2;
  // Budget below the bitmap sizes but above BSL/VA.
  const double bsl_size =
      advisor.Estimate(IndexKind::kBitmapBitSliced, profile).size_bytes;
  const double va_size =
      advisor.Estimate(IndexKind::kVaFile, profile).size_bytes;
  const double budget = std::max(bsl_size, va_size) * 1.1;
  const IndexKind pick = advisor.Recommend(profile, budget);
  EXPECT_TRUE(pick == IndexKind::kBitmapBitSliced ||
              pick == IndexKind::kVaFile)
      << IndexKindToString(pick);
  for (const IndexCostEstimate& estimate : advisor.Rank(profile, budget)) {
    EXPECT_LE(estimate.size_bytes, budget);
  }
}

// End-to-end sanity: for a range-heavy workload the advisor's top bitmap
// pick must actually beat the scan, measured.
TEST(AdvisorTest, RecommendationBeatsScanInPractice) {
  const Table table = GenerateTable(UniformSpec(30000, 20, 0.2, 6, 937)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.dims = 4;
  profile.attribute_selectivity = 0.15;
  const IndexKind pick = advisor.Recommend(profile);
  ASSERT_NE(pick, IndexKind::kSequentialScan);

  WorkloadParams params;
  params.num_queries = 30;
  params.dims = 4;
  params.attribute_selectivity = 0.15;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  const auto picked = CreateIndex(pick, table).value();
  const auto scan = CreateIndex(IndexKind::kSequentialScan, table).value();
  const double picked_ms =
      RunWorkload(*picked, queries.value(), table.num_rows())->total_millis;
  const double scan_ms =
      RunWorkload(*scan, queries.value(), table.num_rows())->total_millis;
  EXPECT_LT(picked_ms, scan_ms);
}

}  // namespace
}  // namespace incdb
