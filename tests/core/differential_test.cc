// Randomized differential sweep: random schemas (odd cardinalities, empty
// and saturated missing rates, skew), random mutation sequences (appends),
// random range and boolean queries — every index kind must agree with the
// row-level oracle at every step. One seeded deterministic run per case.

#include <gtest/gtest.h>

#include "../baselines/test_indexes.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/expr_executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

DatasetSpec RandomSpec(Rng& rng, uint64_t seed) {
  DatasetSpec spec;
  spec.seed = seed;
  spec.num_rows = 200 + static_cast<uint64_t>(rng.UniformInt(0, 800));
  const int num_attrs = static_cast<int>(rng.UniformInt(2, 6));
  for (int a = 0; a < num_attrs; ++a) {
    GeneratedAttribute attr;
    attr.name = "f" + std::to_string(a);
    // Deliberately awkward cardinalities: 1, 2, primes, powers of two ± 1.
    constexpr uint32_t kCardinalities[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31,
                                           37, 64, 101};
    attr.cardinality = kCardinalities[rng.UniformInt(0, 12)];
    constexpr double kMissing[] = {0.0, 0.01, 0.2, 0.5, 0.95};
    attr.missing_rate = kMissing[rng.UniformInt(0, 4)];
    attr.zipf_theta = rng.Bernoulli(0.3) ? 1.0 + rng.UniformDouble() : 0.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

std::vector<Value> RandomRow(Rng& rng, const Table& table) {
  std::vector<Value> row(table.num_attributes());
  for (size_t a = 0; a < row.size(); ++a) {
    if (rng.Bernoulli(0.25)) {
      row[a] = kMissingValue;
    } else {
      row[a] = static_cast<Value>(
          rng.UniformInt(1, table.schema().attribute(a).cardinality));
    }
  }
  return row;
}

QueryExpr RandomExpr(Rng& rng, const Table& table, int depth) {
  const size_t attr = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(table.num_attributes()) - 1));
  const Value cardinality =
      static_cast<Value>(table.schema().attribute(attr).cardinality);
  if (depth == 0 || rng.Bernoulli(0.4)) {
    const Value lo = static_cast<Value>(rng.UniformInt(1, cardinality));
    const Value hi = static_cast<Value>(rng.UniformInt(lo, cardinality));
    return QueryExpr::MakeTerm(attr, {lo, hi});
  }
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return QueryExpr::MakeAnd(
          {RandomExpr(rng, table, depth - 1), RandomExpr(rng, table, depth - 1)});
    case 1:
      return QueryExpr::MakeOr(
          {RandomExpr(rng, table, depth - 1), RandomExpr(rng, table, depth - 1)});
    default:
      return QueryExpr::MakeNot(RandomExpr(rng, table, depth - 1));
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EverythingAgreesWithOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Table table = GenerateTable(RandomSpec(rng, seed)).value();

  const std::vector<TestIndex> builders = WithBaselines(
      {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
       IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
       IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
       IndexKind::kVaFile});
  std::vector<std::unique_ptr<IncompleteIndex>> indexes;
  for (int round = 0; round < 3; ++round) {
    // Mutate: a burst of appends to the table, then rebuild every index
    // over it (indexes are immutable; the store rebuilds segments).
    const int appends = static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < appends; ++i) {
      ASSERT_TRUE(table.AppendRow(RandomRow(rng, table)).ok());
    }
    indexes.clear();
    for (const TestIndex& builder : builders) {
      auto index = builder.build(table);
      ASSERT_TRUE(index.ok()) << builder.name;
      indexes.push_back(std::move(index).value());
    }

    // Conjunctive queries against the oracle.
    WorkloadParams params;
    params.num_queries = 10;
    params.dims = std::min<size_t>(3, table.num_attributes());
    params.global_selectivity = 0.05;
    params.seed = seed * 31 + static_cast<uint64_t>(round);
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      params.semantics = semantics;
      const auto queries = GenerateWorkload(table, params);
      ASSERT_TRUE(queries.ok());
      for (const auto& index : indexes) {
        ASSERT_TRUE(VerifyAgainstOracle(*index, table, queries.value()).ok())
            << index->Name() << " seed " << seed << " round " << round;
      }
    }

    // Boolean expression queries against the Kleene oracle.
    for (int i = 0; i < 5; ++i) {
      const QueryExpr expr = RandomExpr(rng, table, 3);
      for (MissingSemantics semantics :
           {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
        const auto expected = ExecuteExprScan(table, expr, semantics);
        ASSERT_TRUE(expected.ok());
        for (const auto& index : indexes) {
          const auto actual = ExecuteExpr(*index, expr, semantics);
          ASSERT_TRUE(actual.ok()) << index->Name();
          ASSERT_TRUE(actual.value() == expected.value())
              << index->Name() << " on " << expr.ToString() << " seed "
              << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace incdb
