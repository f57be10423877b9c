// Aggregation over matching rows (SQL NULL semantics for the aggregated
// attribute), verified against a scan reference for every encoding — the
// bit-sliced fast path must agree with the generic per-value path.

#include <gtest/gtest.h>

#include "bitmap/bitmap_index.h"
#include "query/query.h"
#include "table/generator.h"

namespace incdb {
namespace {

struct Reference {
  uint64_t count = 0;
  uint64_t missing = 0;
  uint64_t sum = 0;
  Value min = 0;
  Value max = 0;
};

Reference ScanAggregate(const Table& table, const RangeQuery& query,
                        size_t agg_attr) {
  Reference ref;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (!RowMatches(table, r, query)) continue;
    const Value v = table.Get(r, agg_attr);
    if (IsMissing(v)) {
      ++ref.missing;
      continue;
    }
    if (ref.count == 0 || v < ref.min) ref.min = v;
    if (ref.count == 0 || v > ref.max) ref.max = v;
    ++ref.count;
    ref.sum += static_cast<uint64_t>(v);
  }
  return ref;
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

TEST(AggregateTest, MatchesScanAcrossEncodings) {
  const Table table = GenerateTable(UniformSpec(2000, 9, 0.3, 4, 961)).value();
  for (const BitmapIndex::Options& options : AllKinds()) {
    const BitmapIndex index = BitmapIndex::Build(table, options).value();
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      RangeQuery q;
      q.semantics = semantics;
      q.terms = {{0, {2, 7}}, {2, {1, 5}}};
      const auto aggregate = index.ExecuteAggregate(q, /*agg_attr=*/1);
      ASSERT_TRUE(aggregate.ok()) << index.Name();
      const Reference ref = ScanAggregate(table, q, 1);
      EXPECT_EQ(aggregate->count, ref.count)
          << index.Name();
      EXPECT_EQ(aggregate->missing_count, ref.missing);
      EXPECT_EQ(aggregate->sum, ref.sum) << index.Name();
      EXPECT_EQ(aggregate->min, ref.min);
      EXPECT_EQ(aggregate->max, ref.max);
      if (ref.count > 0) {
        EXPECT_NEAR(aggregate->mean,
                    static_cast<double>(ref.sum) /
                        static_cast<double>(ref.count),
                    1e-12);
      }
    }
  }
}

TEST(AggregateTest, EmptyResultSet) {
  auto table = Table::Create(Schema({{"a", 5}, {"b", 5}})).value();
  ASSERT_TRUE(table.AppendRow({1, 2}).ok());
  ASSERT_TRUE(table.AppendRow({2, kMissingValue}).ok());
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kNoMatch;
  q.terms = {{0, {5, 5}}};  // matches nothing
  const auto aggregate = index.ExecuteAggregate(q, 1);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_EQ(aggregate->count, 0u);
  EXPECT_EQ(aggregate->missing_count, 0u);
  EXPECT_EQ(aggregate->sum, 0u);
  EXPECT_EQ(aggregate->min, 0);
  EXPECT_EQ(aggregate->max, 0);
  EXPECT_DOUBLE_EQ(aggregate->mean, 0.0);
}

TEST(AggregateTest, AllMatchingValuesMissing) {
  auto table = Table::Create(Schema({{"a", 5}, {"b", 5}})).value();
  ASSERT_TRUE(table.AppendRow({1, kMissingValue}).ok());
  ASSERT_TRUE(table.AppendRow({1, kMissingValue}).ok());
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kNoMatch;
  q.terms = {{0, {1, 1}}};
  const auto aggregate = index.ExecuteAggregate(q, 1);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_EQ(aggregate->count, 0u);
  EXPECT_EQ(aggregate->missing_count, 2u);
  EXPECT_EQ(aggregate->sum, 0u);
}

TEST(AggregateTest, HighCardinalitySlicedSum) {
  // Exercise the bit-sliced fast path on a wide domain where the slice
  // decomposition spans 7 bits.
  const Table table = GenerateTable(UniformSpec(3000, 100, 0.2, 2, 963)).value();
  const BitmapIndex bsl =
      BitmapIndex::Build(
          table, {BitmapEncoding::kBitSliced, MissingStrategy::kExtraBitmap})
          .value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  q.terms = {{0, {10, 90}}};
  const auto aggregate = bsl.ExecuteAggregate(q, 1);
  ASSERT_TRUE(aggregate.ok());
  const Reference ref = ScanAggregate(table, q, 1);
  EXPECT_EQ(aggregate->sum, ref.sum);
  EXPECT_EQ(aggregate->count, ref.count);
  EXPECT_EQ(aggregate->min, ref.min);
  EXPECT_EQ(aggregate->max, ref.max);
}

TEST(AggregateTest, RejectsBadAttribute) {
  const Table table = GenerateTable(UniformSpec(100, 5, 0.1, 2, 965)).value();
  const BitmapIndex index = BitmapIndex::Build(table, {}).value();
  RangeQuery q;
  q.terms = {{0, {1, 3}}};
  EXPECT_EQ(index.ExecuteAggregate(q, 9).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace incdb
