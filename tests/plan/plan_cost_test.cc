// The cost model charges a bitmap kind for exactly the bitvectors its
// evaluator reads. For every served bitmap kind, a set of cardinalities,
// every interval, both missing semantics and attributes with and without
// missing cells, BitmapIndex::TermReads must equal the
// QueryStats::bitvectors_accessed of a one-term Execute, and
// plan::KindCost must equal the summed reads times the per-bitvector word
// charge.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "plan/cost.h"

namespace incdb {
namespace plan {
namespace {

constexpr uint32_t kCardinalities[] = {1, 2, 3, 5, 10, 20, 31, 100};

/// Attribute 0 has missing cells (every 7th row), attribute 1 has none;
/// both take every value of [1, C].
Table MakeTable(uint32_t cardinality) {
  Table table =
      Table::Create(Schema({{"gappy", cardinality}, {"complete", cardinality}}))
          .value();
  const uint32_t rows = 2 * cardinality + 70;
  for (uint32_t r = 0; r < rows; ++r) {
    const Value v = static_cast<Value>(1 + r % cardinality);
    table.AppendRowUnchecked({r % 7 == 3 ? kMissingValue : v, v});
  }
  return table;
}

class PlanCostTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(PlanCostTest, BitmapChargeIsTheEvaluatorsReads) {
  const IndexKindInfo& info = *FindIndexKind(GetParam());
  ASSERT_TRUE(info.bitmap.has_value());
  for (const uint32_t c : kCardinalities) {
    const Table table = MakeTable(c);
    const std::vector<uint64_t> missing_counts = {
        table.column(0).MissingCount(), table.column(1).MissingCount()};
    ASSERT_GT(missing_counts[0], 0u);
    ASSERT_EQ(missing_counts[1], 0u);
    const std::unique_ptr<IncompleteIndex> index =
        CreateIndex(info.kind, table).value();
    const double word_cost = BitvectorWordCost(table.num_rows());
    for (const MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      for (Value lo = 1; lo <= static_cast<Value>(c); ++lo) {
        for (Value hi = lo; hi <= static_cast<Value>(c); ++hi) {
          uint64_t summed = 0;
          std::vector<QueryTerm> both;
          for (size_t attr = 0; attr < 2; ++attr) {
            SCOPED_TRACE("C=" + std::to_string(c) + " [" +
                         std::to_string(lo) + "," + std::to_string(hi) +
                         "] attr " + std::to_string(attr) + " " +
                         std::string(MissingSemanticsToString(semantics)));
            const QueryTerm term{attr, {lo, hi}};
            RangeQuery query;
            query.terms = {term};
            query.semantics = semantics;
            QueryStats stats;
            ASSERT_TRUE(index->Execute(query, &stats).ok());
            const uint64_t reads =
                BitmapIndex::TermReads(*info.bitmap, c, term.interval,
                                       semantics, missing_counts[attr] > 0);
            ASSERT_EQ(reads, stats.bitvectors_accessed);
            ASSERT_EQ(KindCost(table.schema(), missing_counts,
                               table.num_rows(), info.kind, query.terms,
                               semantics, 0.5),
                      static_cast<double>(reads) * word_cost);
            summed += reads;
            both.push_back(term);
          }
          ASSERT_EQ(KindCost(table.schema(), missing_counts, table.num_rows(),
                             info.kind, both, semantics, 0.5),
                    static_cast<double>(summed) * word_cost);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitmapKinds, PlanCostTest,
    ::testing::Values(IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                      IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
                      IndexKind::kBitmapMultiComponent,
                      IndexKind::kBitmapHierarchical),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      std::string name(FindIndexKind(info.param)->alias);
      return name;
    });

// The ablation strategies keep no missing bitmap: kAllZeros always ORs the
// inside bitmaps, kAllOnes recovers missing rows on the complement path
// from two value bitmaps. Each answers one semantics only.
TEST(PlanCostAblationTest, StrategiesReadWhatTheirEvaluatorReads) {
  for (const uint32_t c : kCardinalities) {
    const Table table = MakeTable(c);
    for (const auto& [strategy, semantics] :
         {std::pair{MissingStrategy::kAllZeros, MissingSemantics::kNoMatch},
          std::pair{MissingStrategy::kAllOnes, MissingSemantics::kMatch}}) {
      const BitmapIndex::Options options{BitmapEncoding::kEquality, strategy};
      const Result<BitmapIndex> index = BitmapIndex::Build(table, options);
      // kAllOnes cannot tell missing from the single value when C = 1.
      if (!index.ok()) continue;
      for (Value lo = 1; lo <= static_cast<Value>(c); ++lo) {
        for (Value hi = lo; hi <= static_cast<Value>(c); ++hi) {
          for (size_t attr = 0; attr < 2; ++attr) {
            QueryStats stats;
            ASSERT_TRUE(index.value()
                            .EvaluateInterval(attr, {lo, hi}, semantics,
                                              &stats)
                            .ok());
            ASSERT_EQ(BitmapIndex::TermReads(options, c, {lo, hi}, semantics,
                                             attr == 0),
                      stats.bitvectors_accessed)
                << "C=" << c << " [" << lo << "," << hi << "]";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace plan
}  // namespace incdb
