// Measures the plan executor's morsel-parallel mode against serial
// execution of the same physical plan: multi-attribute conjunctions lowered
// to per-dimension index probes (evaluated concurrently) and to
// morsel-partitioned sequential scans.
//
// The acceptance property is a >= 2x speedup on 8 worker threads for
// multi-attribute conjunctions at 1M rows. Both runs execute the identical
// plan shape (the parallel lowering), so the comparison isolates the worker
// pool itself — and the answers are bit-identical by construction.
//
// Usage: bench_plan_executor [--json <path>]
// With --json, timings are also written as machine-readable JSON, which
// tools/bench_gate.py compares between two builds.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/database.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "table/generator.h"

namespace incdb {
namespace {

uint64_t g_sink = 0;
constexpr size_t kThreads = 8;
constexpr int kReps = 5;

Database MustMakeDatabase(uint64_t num_rows, bool indexed) {
  DatasetSpec spec;
  spec.seed = 20060331;
  spec.num_rows = num_rows;
  for (int a = 0; a < 8; ++a) {
    spec.attributes.push_back(
        {"a" + std::to_string(a), 20, 0.10, 0.0});
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) {
    std::fprintf(stderr, "generate: %s\n", table.status().ToString().c_str());
    std::exit(1);
  }
  auto db = Database::FromTable(std::move(table).value());
  if (!db.ok()) {
    std::fprintf(stderr, "database: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  if (indexed) {
    const Status status = db->BuildIndex(IndexKind::kBitmapEquality);
    if (!status.ok()) {
      std::fprintf(stderr, "index: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return std::move(db).value();
}

QueryRequest Conjunction(size_t dims) {
  std::vector<NamedTerm> terms;
  for (size_t a = 0; a < dims; ++a) {
    terms.push_back({"a" + std::to_string(a), static_cast<Value>(3),
                     static_cast<Value>(3 + 2 * (a % 3))});
  }
  return QueryRequest::Terms(std::move(terms), MissingSemantics::kNoMatch);
}

/// Plans the request fresh (a plan instance runs once) and executes it on
/// `threads` workers; returns the best-of-kReps wall time and accumulates
/// the count into the sink so the work cannot be optimized away.
double MustTimePlan(const Database& db, const QueryRequest& request,
                    size_t threads) {
  const Snapshot snapshot = db.GetSnapshot();
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // The parallel lowering (request.parallelism != 1) fixes the plan
    // shape; `threads` then sets only the worker pool size.
    QueryRequest shaped = request;
    shaped.Parallel(kThreads);
    auto plan = plan::PlanRequest(snapshot, shaped);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      std::exit(1);
    }
    plan::ExecOptions options;
    options.num_threads = threads;
    Timer timer;
    auto result = plan::ExecutePlan(&plan.value(), options);
    const double millis = timer.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "execute: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    g_sink += result->count;
    if (rep == 0 || millis < best) best = millis;
  }
  return best;
}

}  // namespace

int BenchMain(int argc, char** argv) {
  bench::Init(argc, argv);
  const uint64_t rows = bench::BenchRows(1000000);

  bench::PrintHeader(
      {"case", "rows", "dims", "serial_ms", "parallel8_ms", "speedup"});

  struct Case {
    const char* name;
    bool indexed;
    size_t dims;
  };
  const Case cases[] = {
      {"probe_conjunction", true, 4},
      {"probe_conjunction", true, 8},
      {"scan_conjunction", false, 4},
      {"scan_conjunction", false, 8},
  };

  Database indexed = MustMakeDatabase(rows, /*indexed=*/true);
  Database scan_only = MustMakeDatabase(rows, /*indexed=*/false);

  for (const Case& c : cases) {
    const Database& db = c.indexed ? indexed : scan_only;
    const QueryRequest request = Conjunction(c.dims);
    const double serial_ms = MustTimePlan(db, request, 1);
    const double parallel_ms = MustTimePlan(db, request, kThreads);
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

    const std::string config = std::string(c.name) + "&rows=" +
                               std::to_string(rows) +
                               "&dims=" + std::to_string(c.dims);
    bench::RecordResult("serial", config, serial_ms, 0);
    bench::RecordResult("parallel8", config, parallel_ms, 0);

    bench::PrintRow({c.name, std::to_string(rows), std::to_string(c.dims),
                     bench::FormatDouble(serial_ms),
                     bench::FormatDouble(parallel_ms),
                     bench::FormatDouble(speedup, 2)});
  }

  if (g_sink == 0) std::fprintf(stderr, "# sink empty (unexpected)\n");
  bench::WriteJson();
  return 0;
}

}  // namespace incdb

int main(int argc, char** argv) { return incdb::BenchMain(argc, argv); }
