// Validates the cost-based index advisor (the executable form of the
// paper's "insights into the conditions for which to use each technique"):
// for several workload profiles, prints each index kind's predicted cost
// (abstract word touches) next to its measured time, plus whether the
// advisor's recommendation was the measured-fastest structure.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "core/advisor.h"
#include "table/generator.h"

namespace incdb {
namespace {

constexpr IndexKind kCandidates[] = {
    IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
    IndexKind::kBitmapRange,    IndexKind::kBitmapInterval,
    IndexKind::kBitmapBitSliced, IndexKind::kVaFile};

int Main() {
  const uint64_t rows = bench::BenchRows(50000);
  const Table table =
      GenerateTable(UniformSpec(rows, 20, 0.20, 8, 42)).value();
  const IndexAdvisor advisor(table);

  struct Profile {
    const char* label;
    WorkloadProfile profile;
  };
  std::vector<Profile> profiles;
  {
    WorkloadProfile p;
    p.dims = 4;
    p.point_queries = true;
    profiles.push_back({"point_4d", p});
  }
  {
    WorkloadProfile p;
    p.dims = 4;
    p.attribute_selectivity = 0.10;
    profiles.push_back({"narrow_range_4d", p});
  }
  {
    WorkloadProfile p;
    p.dims = 4;
    p.attribute_selectivity = 0.50;
    profiles.push_back({"wide_range_4d", p});
  }
  {
    WorkloadProfile p;
    p.dims = 8;
    p.attribute_selectivity = 0.20;
    profiles.push_back({"range_8d", p});
  }

  std::printf("# Advisor validation (%llu rows, cardinality 20, 20%% "
              "missing, 8 attributes, %zu queries per profile)\n",
              static_cast<unsigned long long>(rows), bench::BenchQueries());
  for (const Profile& entry : profiles) {
    std::printf("\n## profile %s\n", entry.label);
    bench::PrintHeader({"index", "predicted_cost", "measured_ms",
                        "predicted_size_mb", "actual_size_mb"});
    WorkloadParams params;
    params.num_queries = bench::BenchQueries();
    params.dims = entry.profile.dims;
    params.point_queries = entry.profile.point_queries;
    params.attribute_selectivity = entry.profile.attribute_selectivity;
    params.semantics = entry.profile.semantics;
    params.seed = 7;
    const std::vector<RangeQuery> queries =
        bench::MustGenerateWorkload(table, params);

    double best_measured = 1e18;
    IndexKind best_kind = IndexKind::kSequentialScan;
    std::map<IndexKind, double> measured_by_kind;
    for (IndexKind kind : kCandidates) {
      const IndexCostEstimate estimate =
          advisor.Estimate(kind, entry.profile);
      const auto index = bench::MustCreateIndex(kind, table);
      const double measured =
          bench::MustRunWorkload(*index, queries, rows).total_millis;
      measured_by_kind[kind] = measured;
      if (measured < best_measured) {
        best_measured = measured;
        best_kind = kind;
      }
      bench::PrintRow(
          {std::string(IndexKindToString(kind)),
           bench::FormatDouble(estimate.query_cost, 0),
           bench::FormatDouble(measured, 2),
           bench::FormatBytesAsMB(
               static_cast<uint64_t>(estimate.size_bytes)),
           bench::FormatBytesAsMB(index->SizeInBytes())});
    }
    // The advisor ranks among candidates with modeled baselines excluded
    // from recommendation only by cost, so compare against its top pick
    // restricted to the candidate set.
    const auto ranked = advisor.Rank(entry.profile, 1e18);
    IndexKind recommended = IndexKind::kSequentialScan;
    for (const IndexCostEstimate& estimate : ranked) {
      if (std::find(std::begin(kCandidates), std::end(kCandidates),
                    estimate.kind) != std::end(kCandidates)) {
        recommended = estimate.kind;
        break;
      }
    }
    const double gap = measured_by_kind[recommended] / best_measured;
    std::printf("# advisor picks %s (%.2fms); measured fastest %s "
                "(%.2fms); gap %.2fx (%s)\n",
                std::string(IndexKindToString(recommended)).c_str(),
                measured_by_kind[recommended],
                std::string(IndexKindToString(best_kind)).c_str(),
                best_measured, gap,
                recommended == best_kind ? "AGREE"
                : gap <= 1.5             ? "NEAR"
                                         : "disagree");
  }
  return 0;
}

}  // namespace
}  // namespace incdb

int main() { return incdb::Main(); }
