// Functional tests for the sharded segment store: enabling, sealing on
// insert, zone-map pruning visible in QueryStats and EXPLAIN, CompactNow
// reclamation accounting, and the background compactor loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/segments.h"
#include "table/generator.h"

namespace incdb {
namespace {

// A deterministic table whose first attribute is CLUSTERED by construction
// (row r has a0 = 1 + r / rows_per_value), so zone maps genuinely separate
// the segments; the generator's uniform tables cannot be pruned.
Table ClusteredTable(uint64_t num_rows, uint32_t cardinality,
                     uint64_t rows_per_value) {
  std::vector<AttributeSpec> specs = {{"a0", cardinality}, {"a1", 7}};
  Table table = Table::Create(Schema(specs)).value();
  for (uint64_t r = 0; r < num_rows; ++r) {
    const Value clustered = static_cast<Value>(
        1 + std::min<uint64_t>(r / rows_per_value, cardinality - 1));
    const Value noisy =
        r % 11 == 0 ? kMissingValue : static_cast<Value>(1 + (r * 13) % 7);
    EXPECT_TRUE(table.AppendRow({clustered, noisy}).ok());
  }
  return table;
}

SegmentOptions SmallSegments(uint64_t rows = 64) {
  SegmentOptions options;
  options.segment_rows = rows;
  return options;
}

TEST(SegmentsTest, EnableSealsExistingRows) {
  Database db = Database::FromTable(ClusteredTable(300, 8, 40)).value();
  ASSERT_FALSE(db.segments_enabled());
  ASSERT_TRUE(db.EnableSegments(SmallSegments(64)).ok());
  EXPECT_TRUE(db.segments_enabled());
  // 300 rows at 64 rows/segment: 4 sealed segments + 44-row tail.
  EXPECT_EQ(db.num_segments(), 4u);
  EXPECT_EQ(db.sealed_rows(), 256u);
}

TEST(SegmentsTest, EnablingTwiceIsAnError) {
  Database db = Database::FromTable(ClusteredTable(100, 4, 30)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(32)).ok());
  EXPECT_FALSE(db.EnableSegments(SmallSegments(32)).ok());
}

TEST(SegmentsTest, NonSelfContainedIndexKindsAreRejected) {
  Database db = Database::FromTable(ClusteredTable(100, 4, 30)).value();
  for (IndexKind kind : {IndexKind::kSequentialScan, IndexKind::kVaFile,
                         IndexKind::kVaPlusFile}) {
    SegmentOptions options = SmallSegments(32);
    options.index_kind = kind;
    EXPECT_FALSE(db.EnableSegments(options).ok())
        << IndexKindToString(kind);
  }
  EXPECT_FALSE(db.segments_enabled());
}

TEST(SegmentsTest, InsertSealsAtTheBoundary) {
  Database db = Database::FromTable(ClusteredTable(60, 4, 20)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(64)).ok());
  ASSERT_EQ(db.num_segments(), 0u);
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(db.Insert({1, static_cast<Value>(1 + i % 7)}).ok());
  }
  // 130 rows total: one sealed segment at row 64, tail of 66... the second
  // seal happens when row 128 accumulates.
  EXPECT_EQ(db.num_segments(), 2u);
  EXPECT_EQ(db.sealed_rows(), 128u);
  EXPECT_EQ(db.num_rows(), 130u);
}

TEST(SegmentsTest, RoutingAndStatsExposePruning) {
  // Clustered a0 in [1,8], 80 rows per value, segment_rows=80: each sealed
  // segment holds exactly one a0 value, so a point query on a0 must prune
  // all other segments.
  Database db = Database::FromTable(ClusteredTable(640, 8, 80)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(80)).ok());
  ASSERT_EQ(db.num_segments(), 8u);

  const auto result =
      db.Run(QueryRequest::Text("a0 = 3", MissingSemantics::kNoMatch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->count, 80u);
  EXPECT_NE(result->chosen_index.find("SEG["), std::string::npos)
      << result->chosen_index;
  EXPECT_EQ(result->stats.segments_scanned, 1u);
  EXPECT_EQ(result->stats.segments_pruned, 7u);

  // EXPLAIN surfaces the same counters on the probe operator.
  const auto explained = db.Run(
      QueryRequest::Text("a0 = 3", MissingSemantics::kNoMatch).Explain());
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->explain.find("segs"), std::string::npos)
      << explained->explain;
  EXPECT_NE(explained->explain.find("pruned"), std::string::npos)
      << explained->explain;
}

TEST(SegmentsTest, MissingCellsBlockPruningUnderMatchSemantics) {
  // a1 has missing cells in every segment, so under kMatch a query on a1
  // may never be zone-pruned (a missing cell can match), while under
  // kNoMatch out-of-range segments still prune on a0.
  Database db = Database::FromTable(ClusteredTable(320, 4, 80)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(80)).ok());
  const auto match =
      db.Run(QueryRequest::Text("a1 = 2", MissingSemantics::kMatch));
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->stats.segments_pruned, 0u);
}

TEST(SegmentsTest, CompactNowReclaimsAndAccounts) {
  Database db = Database::FromTable(ClusteredTable(320, 4, 80)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(80)).ok());
  ASSERT_EQ(db.num_segments(), 4u);

  // Nothing deleted: a cheap no-op that must not bump the counters.
  ASSERT_TRUE(db.CompactNow().ok());
  EXPECT_EQ(db.GetCompactionStats().compactions, 0u);

  // Concentrate the deletes in segment 1 (rows 80..159).
  for (uint32_t r = 80; r < 120; ++r) {
    ASSERT_TRUE(db.Delete(r).ok());
  }
  ASSERT_EQ(db.num_deleted_rows(), 40u);
  ASSERT_TRUE(db.CompactNow().ok());

  const CompactionStats stats = db.GetCompactionStats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.reclaimed_rows, 40u);
  EXPECT_EQ(stats.reclaimed_bytes,
            40u * db.table().num_attributes() * sizeof(Value));
  // Untouched segments ride along by reference; only the deleted-in
  // segment (and whatever tail-merge it triggers) is rebuilt.
  EXPECT_GE(stats.segments_reused, 2u);
  EXPECT_GE(stats.segments_rebuilt, 1u);

  EXPECT_EQ(db.num_rows(), 280u);
  EXPECT_EQ(db.num_deleted_rows(), 0u);
  const auto result =
      db.Run(QueryRequest::Text("a0 = 2", MissingSemantics::kNoMatch));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 40u);  // was 80, half the segment deleted
}

TEST(SegmentsTest, CompactionPreservesAnswersExactly) {
  Database db = Database::FromTable(ClusteredTable(300, 8, 40)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(64)).ok());
  for (uint32_t r = 30; r < 90; r += 3) {
    ASSERT_TRUE(db.Delete(r).ok());
  }
  // Oracle over live rows before compaction.
  std::vector<Value> survivors;
  for (uint64_t r = 0; r < db.num_rows(); ++r) {
    if (!db.IsDeleted(static_cast<uint32_t>(r))) {
      survivors.push_back(db.table().column(0).Get(r));
    }
  }
  ASSERT_TRUE(db.CompactNow().ok());
  ASSERT_EQ(db.num_rows(), survivors.size());
  for (uint64_t r = 0; r < db.num_rows(); ++r) {
    EXPECT_EQ(db.table().column(0).Get(r), survivors[r]) << "row " << r;
  }
}

TEST(SegmentsTest, BackgroundCompactorTriggersOnDeletes) {
  Database db = Database::FromTable(ClusteredTable(256, 4, 64)).value();
  ASSERT_TRUE(db.EnableSegments(SmallSegments(64)).ok());
  BackgroundCompactor::Options options;
  options.interval_millis = 5;
  options.min_deleted_rows = 10;
  BackgroundCompactor compactor(&db, options);
  for (uint32_t r = 0; r < 16; ++r) {
    ASSERT_TRUE(db.Delete(r).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.GetCompactionStats().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  compactor.Stop();
  EXPECT_GE(db.GetCompactionStats().compactions, 1u);
  EXPECT_EQ(db.num_deleted_rows(), 0u);
  EXPECT_EQ(db.num_rows(), 240u);
  EXPECT_GE(compactor.runs(), 1u);
}

}  // namespace
}  // namespace incdb
