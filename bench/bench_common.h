#ifndef INCDB_BENCH_BENCH_COMMON_H_
#define INCDB_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/index_factory.h"
#include "query/workload.h"
#include "table/table.h"

namespace incdb {
namespace bench {

/// Parses benchmark command-line flags. Currently supported:
///   --json <path>   record machine-readable results; WriteJson() then
///                   writes them to <path> (the BENCH_*.json perf
///                   trajectory files CI archives).
/// Unknown flags abort with a usage message.
void Init(int argc, char** argv);

/// Records one benchmark measurement for the JSON trajectory file. No-op
/// unless --json was passed to Init.
void RecordResult(const std::string& bench, const std::string& config,
                  double millis, uint64_t bytes);

/// Writes every recorded measurement to the --json path as
/// {"results": [{"bench","config","millis","bytes"}, ...]}. No-op without
/// --json. Call once at the end of main.
void WriteJson();

/// Number of rows benchmarks use, honoring the INCDB_BENCH_ROWS environment
/// variable (default `fallback`, the paper-scale value unless noted).
uint64_t BenchRows(uint64_t fallback);

/// Number of queries per configuration (INCDB_BENCH_QUERIES, default 100 —
/// the paper's workload size).
size_t BenchQueries();

/// Prints a CSV header line.
void PrintHeader(const std::vector<std::string>& columns);

/// Prints one CSV row of already-formatted cells.
void PrintRow(const std::vector<std::string>& cells);

/// Formats helpers.
std::string FormatDouble(double value, int decimals = 3);
std::string FormatBytesAsMB(uint64_t bytes);

/// Builds an index, runs the workload, and returns the result; aborts with
/// a message on error (benchmarks are scripts, not libraries).
WorkloadResult MustRunWorkload(const IncompleteIndex& index,
                               const std::vector<RangeQuery>& queries,
                               uint64_t num_rows);

/// The value of a direct Build (of an index that is not an IndexKind), or
/// die naming `what`.
template <typename T>
T MustBuild(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "index build failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// CreateIndex or die.
std::unique_ptr<IncompleteIndex> MustCreateIndex(IndexKind kind,
                                                 const Table& table);

/// GenerateWorkload or die.
std::vector<RangeQuery> MustGenerateWorkload(const Table& table,
                                             const WorkloadParams& params);

}  // namespace bench
}  // namespace incdb

#endif  // INCDB_BENCH_BENCH_COMMON_H_
