// GROUP BY COUNT over the compressed index, verified against a scan-side
// reference for every encoding and semantics.

#include <gtest/gtest.h>

#include "bitmap/bitmap_index.h"
#include "query/seq_scan.h"
#include "table/generator.h"

namespace incdb {
namespace {

std::vector<uint64_t> ReferenceGroupCount(const Table& table,
                                          const RangeQuery& query,
                                          size_t group_attr) {
  std::vector<uint64_t> counts(
      table.schema().attribute(group_attr).cardinality + 1, 0);
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (!RowMatches(table, r, query)) continue;
    ++counts[static_cast<size_t>(table.Get(r, group_attr))];
  }
  return counts;
}

// The four direct encodings plus the multi-component and hierarchical
// slicers (which answer through the generic per-value path).
std::vector<BitmapIndex::Options> AllKinds() {
  std::vector<BitmapIndex::Options> kinds;
  for (BitmapEncoding encoding :
       {BitmapEncoding::kEquality, BitmapEncoding::kRange,
        BitmapEncoding::kInterval, BitmapEncoding::kBitSliced}) {
    kinds.push_back({encoding, MissingStrategy::kExtraBitmap});
  }
  for (SlotScheme scheme :
       {SlotScheme::kMultiComponent, SlotScheme::kHierarchical}) {
    kinds.push_back(
        {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap, scheme});
  }
  return kinds;
}

TEST(GroupCountTest, MatchesScanReferenceAcrossEncodings) {
  const Table table = GenerateTable(UniformSpec(2000, 8, 0.25, 4, 941)).value();
  for (const BitmapIndex::Options& options : AllKinds()) {
    const BitmapIndex index = BitmapIndex::Build(table, options).value();
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      RangeQuery q;
      q.semantics = semantics;
      q.terms = {{0, {2, 6}}, {2, {1, 4}}};
      const auto counts = index.ExecuteGroupCount(q, /*group_attr=*/1);
      ASSERT_TRUE(counts.ok()) << index.Name();
      EXPECT_EQ(counts.value(), ReferenceGroupCount(table, q, 1))
          << index.Name() << " "
          << MissingSemanticsToString(semantics);
    }
  }
}

TEST(GroupCountTest, GroupByAConstrainedAttribute) {
  // Grouping by an attribute that appears in the search key is legal; only
  // in-range groups can be non-zero.
  const Table table = GenerateTable(UniformSpec(1000, 6, 0.2, 2, 943)).value();
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kNoMatch;
  q.terms = {{0, {2, 4}}};
  const auto counts = index.ExecuteGroupCount(q, 0);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value()[0], 0u);  // no missing under no-match
  EXPECT_EQ(counts.value()[1], 0u);
  EXPECT_EQ(counts.value()[5], 0u);
  EXPECT_GT(counts.value()[3], 0u);
  EXPECT_EQ(counts.value(), ReferenceGroupCount(table, q, 0));
}

TEST(GroupCountTest, MissingBucketUnderMatchSemantics) {
  auto table = Table::Create(Schema({{"a", 3}, {"g", 2}})).value();
  ASSERT_TRUE(table.AppendRow({1, 1}).ok());
  ASSERT_TRUE(table.AppendRow({1, kMissingValue}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, 2}).ok());
  ASSERT_TRUE(table.AppendRow({3, kMissingValue}).ok());
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  q.terms = {{0, {1, 1}}};  // matches rows 0, 1, 2 (row 2 via missing a)
  const auto counts = index.ExecuteGroupCount(q, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value(), (std::vector<uint64_t>{1, 1, 1}));
}

TEST(GroupCountTest, SumsToExecuteCount) {
  const Table table = GenerateTable(UniformSpec(3000, 10, 0.3, 3, 945)).value();
  const BitmapIndex index =
      BitmapIndex::Build(table,
                         {BitmapEncoding::kRange, MissingStrategy::kExtraBitmap})
          .value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  q.terms = {{0, {3, 8}}};
  const auto counts = index.ExecuteGroupCount(q, 2);
  const auto total = index.ExecuteCount(q);
  ASSERT_TRUE(counts.ok());
  ASSERT_TRUE(total.ok());
  uint64_t sum = 0;
  for (uint64_t c : counts.value()) sum += c;
  EXPECT_EQ(sum, total.value());
}

TEST(GroupCountTest, RejectsBadGroupAttribute) {
  const Table table = GenerateTable(UniformSpec(100, 5, 0.1, 2, 947)).value();
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.terms = {{0, {1, 3}}};
  EXPECT_EQ(index.ExecuteGroupCount(q, 9).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace incdb
