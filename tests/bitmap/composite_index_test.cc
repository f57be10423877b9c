// Composite-scheme BitmapIndex tests: the multi-component and hierarchical
// slicers composed with the shared equality encoder must agree with the row-level
// oracle and the direct equality index on every interval under both
// semantics; the probe-count guarantees (O(sum of radices) storage for MC,
// <= 2 bitmaps per level for hierarchical) are asserted through QueryStats,
// not just claimed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "bitmap/slicer.h"
#include "core/database.h"
#include "query/expr.h"
#include "table/generator.h"

namespace incdb {
namespace {

BitmapIndex::Options Composite(SlotScheme scheme) {
  return {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap, scheme};
}

std::vector<uint32_t> Oracle(const Table& table, const RangeQuery& query) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (RowMatches(table, r, query)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

// Every interval shape over every scheme and a spread of cardinalities
// (prime, power of two, perfect square, tiny) against the oracle.
TEST(CompositeIndexTest, AllIntervalsAgreeWithOracle) {
  for (SlotScheme scheme :
       {SlotScheme::kMultiComponent, SlotScheme::kHierarchical}) {
    for (uint32_t cardinality : {1u, 2u, 5u, 16u, 36u, 37u, 101u}) {
      const Table table =
          GenerateTable(UniformSpec(300, cardinality, 0.2, 2, 1000 +
                                    cardinality))
              .value();
      const auto index = BitmapIndex::Build(table, Composite(scheme));
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      for (MissingSemantics semantics :
           {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
        for (uint32_t lo = 1; lo <= cardinality; ++lo) {
          for (uint32_t hi = lo; hi <= cardinality; ++hi) {
            RangeQuery query;
            query.terms = {{0,
                            {static_cast<Value>(lo), static_cast<Value>(hi)}}};
            query.semantics = semantics;
            const auto answer = index->Execute(query);
            ASSERT_TRUE(answer.ok()) << answer.status().ToString();
            EXPECT_EQ(answer->ToIndices(), Oracle(table, query))
                << index->Name() << " C=" << cardinality << " ["
                << lo << "," << hi << "] "
                << MissingSemanticsToString(semantics);
          }
        }
      }
    }
  }
}

TEST(CompositeIndexTest, ConjunctionsAndCountsAgreeWithEqualityIndex) {
  const Table table = GenerateTable(UniformSpec(500, 12, 0.25, 3, 77)).value();
  const auto equality = BitmapIndex::Build(
      table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap});
  ASSERT_TRUE(equality.ok());
  for (SlotScheme scheme :
       {SlotScheme::kMultiComponent, SlotScheme::kHierarchical}) {
    const auto composite = BitmapIndex::Build(table, Composite(scheme));
    ASSERT_TRUE(composite.ok()) << composite.status().ToString();
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      const std::vector<std::vector<QueryTerm>> fixtures = {
          {{0, {3, 3}}, {1, {2, 9}}},
          {{0, {1, 12}}, {2, {5, 5}}},
          {{0, {2, 11}}, {1, {1, 6}}, {2, {4, 12}}},
      };
      for (const std::vector<QueryTerm>& terms : fixtures) {
        RangeQuery query;
        query.terms = terms;
        query.semantics = semantics;
        const auto a = equality->Execute(query);
        const auto b = composite->Execute(query);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->ToIndices(), b->ToIndices()) << query.ToString();
        const auto count = composite->ExecuteCount(query);
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(count.value(), a->Count()) << query.ToString();
      }
    }
  }
}

TEST(CompositeIndexTest, MultiComponentStoresFarFewerBitmaps) {
  const uint32_t cardinality = 10'000;
  const Table table =
      GenerateTable(UniformSpec(2000, cardinality, 0.1, 1, 91)).value();
  const auto equality = BitmapIndex::Build(
      table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap});
  const auto mc = BitmapIndex::Build(
      table, Composite(SlotScheme::kMultiComponent));
  ASSERT_TRUE(equality.ok() && mc.ok());
  // O(2 sqrt C) bitmaps instead of O(C): radices 100 x 100 plus B_0.
  EXPECT_LE(mc->NumBitmaps(0), 2u * 100u + 1u);
  EXPECT_LT(mc->SizeInBytes(), equality->SizeInBytes());
}

TEST(CompositeIndexTest, HierarchicalWideRangeProbesLogarithmically) {
  const uint32_t cardinality = 1024;
  const Table table =
      GenerateTable(UniformSpec(4000, cardinality, 0.1, 1, 93)).value();
  const auto hier = BitmapIndex::Build(
      table, Composite(SlotScheme::kHierarchical));
  ASSERT_TRUE(hier.ok());
  const uint64_t levels = static_cast<uint64_t>(
      std::log2(static_cast<double>(cardinality))) + 1;
  for (const Interval interval :
       {Interval{2, 1023}, Interval{5, 900}, Interval{100, 700},
        Interval{1, 513}}) {
    QueryStats stats;
    const auto result = hier->EvaluateInterval(
        0, interval, MissingSemantics::kNoMatch, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The acceptance bound: a wide range touches <= 2 bitmaps per level.
    EXPECT_LE(stats.bitvectors_accessed, 2 * levels)
        << "[" << interval.lo << "," << interval.hi << "]";
    EXPECT_GT(stats.probe_levels, 0u);
  }
  // Equality encoding would touch ~min(w, C-w) bitmaps for the same range;
  // sanity-check the separation on one wide interval.
  const auto equality = BitmapIndex::Build(
      table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap});
  ASSERT_TRUE(equality.ok());
  QueryStats eq_stats;
  ASSERT_TRUE(equality
                  ->EvaluateInterval(0, {100, 700}, MissingSemantics::kNoMatch,
                                     &eq_stats)
                  .ok());
  QueryStats hier_stats;
  ASSERT_TRUE(hier->EvaluateInterval(0, {100, 700},
                                     MissingSemantics::kNoMatch, &hier_stats)
                  .ok());
  EXPECT_LT(hier_stats.bitvectors_accessed, eq_stats.bitvectors_accessed / 4);
}

TEST(CompositeIndexTest, MultiComponentReportsComponentProbes) {
  const Table table = GenerateTable(UniformSpec(300, 100, 0.15, 1, 95)).value();
  const auto mc = BitmapIndex::Build(
      table, Composite(SlotScheme::kMultiComponent));
  ASSERT_TRUE(mc.ok());
  QueryStats stats;
  ASSERT_TRUE(
      mc->EvaluateInterval(0, {7, 83}, MissingSemantics::kMatch, &stats).ok());
  EXPECT_GT(stats.probe_components, 0u);
}

// Rows inserted after the composite index was built are served by delta
// scan until BuildIndex covers them; both answers agree with the oracle.
TEST(CompositeIndexTest, AppendRowKeepsAgreement) {
  const uint32_t cardinality = 30;
  for (IndexKind kind :
       {IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical}) {
    Database db = std::move(
        Database::FromTable(
            GenerateTable(UniformSpec(200, cardinality, 0.2, 2, 97)).value())
            .value());
    ASSERT_TRUE(db.BuildIndex(kind).ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.Insert({i % 5 == 0 ? kMissingValue
                                        : static_cast<Value>(1 + i % cardinality),
                             static_cast<Value>(1 + (i * 7) % cardinality)})
                      .ok());
    }
    for (bool rebuilt : {false, true}) {
      if (rebuilt) {
        ASSERT_TRUE(db.BuildIndex(kind).ok());
      }
      const Snapshot snapshot = db.GetSnapshot();
      for (MissingSemantics semantics :
           {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
        RangeQuery query;
        query.terms = {{0, {4, 21}}, {1, {1, 17}}};
        query.semantics = semantics;
        const std::vector<uint32_t> expected = Oracle(db.table(), query);
        const auto served = db.Run(QueryRequest::Expression(
            QueryExpr::MakeAnd({QueryExpr::MakeTerm(0, {4, 21}),
                                QueryExpr::MakeTerm(1, {1, 17})}),
            semantics));
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        EXPECT_EQ(served->row_ids, expected)
            << IndexKindToString(kind) << " rebuilt=" << rebuilt;
        if (!rebuilt) continue;
        for (const auto& entry : *snapshot.state().indexes) {
          if (entry.kind != kind) continue;
          const auto answer = entry.index->Execute(query);
          ASSERT_TRUE(answer.ok());
          EXPECT_EQ(answer->ToIndices(), expected) << entry.index->Name();
        }
      }
    }
  }
}

TEST(CompositeIndexTest, FromPartsRejectsMalformedShapes) {
  const Table table = GenerateTable(UniformSpec(100, 20, 0.2, 1, 99)).value();
  const auto built = BitmapIndex::Build(
      table, Composite(SlotScheme::kMultiComponent));
  ASSERT_TRUE(built.ok());

  // Round-trips cleanly through its own parts.
  {
    auto parts = built->attributes();
    const auto again = BitmapIndex::FromParts(
        Composite(SlotScheme::kMultiComponent), built->num_rows(),
        std::move(parts));
    EXPECT_TRUE(again.ok()) << again.status().ToString();
  }
  // Wrong axis count for the scheme.
  {
    auto parts = built->attributes();
    parts[0].axes.pop_back();
    EXPECT_FALSE(BitmapIndex::FromParts(Composite(SlotScheme::kMultiComponent),
                                        built->num_rows(), std::move(parts))
                     .ok());
  }
  // Wrong bitmap count within an axis.
  {
    auto parts = built->attributes();
    parts[0].axes[0].pop_back();
    EXPECT_FALSE(BitmapIndex::FromParts(Composite(SlotScheme::kMultiComponent),
                                        built->num_rows(), std::move(parts))
                     .ok());
  }
  // Parts of one scheme do not pass for another.
  {
    auto parts = built->attributes();
    EXPECT_FALSE(BitmapIndex::FromParts(Composite(SlotScheme::kHierarchical),
                                        built->num_rows(), std::move(parts))
                     .ok());
  }
}

// The composite slicers take equality encoding with the extra missing
// bitmap only; any other combination is refused by Build and FromParts.
TEST(CompositeIndexTest, RejectsNonEqualityOrNonExtraBitmapCombinations) {
  const Table table = GenerateTable(UniformSpec(100, 20, 0.2, 1, 99)).value();
  const auto built =
      BitmapIndex::Build(table, Composite(SlotScheme::kMultiComponent));
  ASSERT_TRUE(built.ok());
  for (SlotScheme scheme :
       {SlotScheme::kMultiComponent, SlotScheme::kHierarchical}) {
    for (const BitmapIndex::Options& options :
         {BitmapIndex::Options{BitmapEncoding::kRange,
                               MissingStrategy::kExtraBitmap, scheme},
          BitmapIndex::Options{BitmapEncoding::kInterval,
                               MissingStrategy::kExtraBitmap, scheme},
          BitmapIndex::Options{BitmapEncoding::kBitSliced,
                               MissingStrategy::kExtraBitmap, scheme},
          BitmapIndex::Options{BitmapEncoding::kEquality,
                               MissingStrategy::kAllOnes, scheme},
          BitmapIndex::Options{BitmapEncoding::kEquality,
                               MissingStrategy::kAllZeros, scheme}}) {
      EXPECT_EQ(BitmapIndex::Build(table, options).status().code(),
                StatusCode::kNotSupported);
      EXPECT_FALSE(BitmapIndex::FromParts(options, built->num_rows(),
                                          built->attributes())
                       .ok());
    }
  }
}

}  // namespace
}  // namespace incdb
