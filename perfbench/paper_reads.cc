// paper_reads: the paper's read experiment (§5-6), in-process and
// read-only.
//
// A Table 7-style grid of ten attributes (C in {2, 10, 50, 100, 1000},
// missing rate in {10, 30, 50}%) carries BEE, BRE, VA-file and HIER
// indexes. One closed-loop thread issues serial count-only requests from a
// fixed list: point queries over 2-8 dimensions, ranges at global
// selectivity {0.1, 1, 10}% x dimensions {2, 4, 8} under both missing
// semantics, and OR/NOT text predicates. Plan, bitmap and compression do
// nearly all the work and the router really mixes kinds, so kernel,
// encoding and router changes show here. C stays <= 1000: C = 10^4 alone
// makes the BRE build dominate set-up.
//
// 100k rows keep the four indexes near 46 MB. At 500k (about 230 MB, most
// of the host's shared last-level cache) a run's query speed stepped by 20%
// mid-run while a pure compute loop timed in between did not move, and ten
// seeds spread past a quarter of their median. In interleaved runs 100k
// rows ranged 3228-3528 queries/s and 250k 1268-1588; the router mix at
// 100k is the same as at 500k.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "table/generator.h"
#include "trace.h"

namespace perfbench {
namespace {

using incdb::Database;
using incdb::IndexKind;
using incdb::MissingSemantics;
using incdb::NamedTerm;
using incdb::QueryRequest;
using incdb::Value;

struct Attribute {
  uint32_t cardinality;
  double missing_rate;
};

constexpr Attribute kGrid[] = {{2, 0.1},   {10, 0.3},  {50, 0.5},   {100, 0.1},
                               {1000, 0.3}, {2, 0.5},  {10, 0.1},   {50, 0.3},
                               {100, 0.5},  {1000, 0.1}};
constexpr size_t kAttrs = std::size(kGrid);

struct Sizes {
  /// See the file comment for why not 500k.
  uint64_t rows = 100000;
  size_t points = 400;
  /// Per (selectivity, dimensions, semantics) cell.
  size_t ranges_per_cell = 24;
  size_t exprs = 120;
};

std::string Name(size_t attr) { return "a" + std::to_string(attr); }

incdb::DatasetSpec Spec(const Sizes& sizes, uint64_t seed) {
  incdb::DatasetSpec spec;
  for (size_t a = 0; a < kAttrs; ++a) {
    spec.attributes.push_back(
        {Name(a), kGrid[a].cardinality, kGrid[a].missing_rate, 0.0});
  }
  spec.num_rows = sizes.rows;
  spec.seed = seed;
  return spec;
}

/// `count` distinct attribute indexes.
std::vector<size_t> PickAttributes(incdb::Rng* rng, size_t count) {
  const std::vector<uint32_t> order = rng->Permutation(kAttrs);
  return std::vector<size_t>(order.begin(), order.begin() + count);
}

/// An interval covering about `fraction` of attribute `a`'s domain.
std::pair<Value, Value> Interval(incdb::Rng* rng, size_t a, double fraction) {
  const uint32_t c = kGrid[a].cardinality;
  const Value width = static_cast<Value>(std::clamp<double>(
      std::round(fraction * c), 1.0, static_cast<double>(c)));
  const Value lo = static_cast<Value>(rng->UniformInt(1, c - width + 1));
  return {lo, static_cast<Value>(lo + width - 1)};
}

std::vector<TimedRequest> BuildRequests(const Sizes& sizes, uint64_t seed) {
  incdb::Rng shape(kShapeSeed);
  incdb::Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<TimedRequest> requests;
  const auto semantics = [](size_t i) {
    return i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch;
  };
  for (size_t i = 0; i < sizes.points; ++i) {
    std::vector<NamedTerm> terms;
    for (const size_t a : PickAttributes(&shape, shape.UniformInt(2, 8))) {
      const Value v =
          static_cast<Value>(rng.UniformInt(1, kGrid[a].cardinality));
      terms.push_back({Name(a), v, v});
    }
    requests.push_back(
        {QueryClass::kPoint,
         QueryRequest::Terms(std::move(terms), semantics(i)).CountOnly()});
  }
  for (const double global : {0.001, 0.01, 0.1}) {
    for (const size_t dims : {2, 4, 8}) {
      // Per-dimension fraction whose product is the global selectivity.
      const double fraction = std::pow(global, 1.0 / static_cast<double>(dims));
      for (size_t i = 0; i < 2 * sizes.ranges_per_cell; ++i) {
        std::vector<NamedTerm> terms;
        for (const size_t a : PickAttributes(&shape, dims)) {
          const auto [lo, hi] = Interval(&rng, a, fraction);
          terms.push_back({Name(a), lo, hi});
        }
        requests.push_back(
            {QueryClass::kRange,
             QueryRequest::Terms(std::move(terms), semantics(i)).CountOnly()});
      }
    }
  }
  for (size_t i = 0; i < sizes.exprs; ++i) {
    const std::vector<size_t> a = PickAttributes(&shape, 3);
    const auto [lo, hi] = Interval(&rng, a[0], 0.2);
    const auto value = [&](size_t attr) {
      return std::to_string(rng.UniformInt(1, kGrid[attr].cardinality));
    };
    const std::string range = Name(a[0]) + " IN [" + std::to_string(lo) + "," +
                              std::to_string(hi) + "]";
    std::string text;
    switch (i % 3) {
      case 0:
        text = range + " OR " + Name(a[1]) + " = " + value(a[1]);
        break;
      case 1:
        text = range + " AND NOT " + Name(a[1]) + " = " + value(a[1]);
        break;
      default:
        text = "(" + range + " OR " + Name(a[1]) + " = " + value(a[1]) +
               ") AND NOT " + Name(a[2]) + " = " + value(a[2]);
        break;
    }
    requests.push_back(
        {QueryClass::kExpr,
         QueryRequest::Text(text, semantics(i)).CountOnly()});
  }
  // Interleave the classes so slow phases of the host spread over all.
  const std::vector<uint32_t> order =
      shape.Permutation(static_cast<uint32_t>(requests.size()));
  std::vector<TimedRequest> shuffled;
  for (const uint32_t i : order) shuffled.push_back(requests[i]);
  return shuffled;
}

struct Built {
  const char* span;
  const char* key;
  IndexKind kind;
};

constexpr Built kIndexes[] = {
    {"core.BuildIndex.bee", "bee", IndexKind::kBitmapEquality},
    {"core.BuildIndex.bre", "bre", IndexKind::kBitmapRange},
    {"core.BuildIndex.va", "va", IndexKind::kVaFile},
    {"core.BuildIndex.hier", "hier", IndexKind::kBitmapHierarchical}};

/// Generates the table and builds the four indexes.
std::optional<Database> SetUp(const Sizes& sizes, uint64_t seed,
                              Report* report, Layers* layers) {
  const Span setup("setup");
  // Every step on the next CPU (see CpuTour).
  CpuTour tour;
  tour.Next();
  incdb::Result<incdb::Table> table = incdb::Status::OK();
  {
    const Span span("table.generate");
    table = incdb::GenerateTable(Spec(sizes, seed));
  }
  report->Op(table.status(), "GenerateTable");
  if (!table.ok()) return {};
  auto db = Database::FromTable(std::move(table).value());
  report->Op(db.status(), "FromTable");
  if (!db.ok()) return {};
  for (const Built& index : kIndexes) {
    tour.Next();
    const uint64_t before = db->IndexSizeInBytes();
    incdb::Status status;
    {
      const Span span(index.span);
      status = db->BuildIndex(index.kind);
    }
    report->Op(status, "BuildIndex");
    if (!status.ok()) return {};
    layers->bytes_per_row[index.key].Add(
        static_cast<double>(db->IndexSizeInBytes() - before) /
        static_cast<double>(sizes.rows));
  }
  return std::move(db).value();
}

/// The router never picks the VA-file on this data, so its filter quality
/// is measured by running every range request directly on it through the
/// plan layer's bare-index path: candidates surviving the approximation
/// scan versus false positives removed by refinement.
void ProbeVaFile(const Database& db, const std::vector<TimedRequest>& requests,
                 Report* report, Layers* layers) {
  const incdb::Snapshot snapshot = db.GetSnapshot();
  const incdb::IncompleteIndex* va = nullptr;
  for (const auto& entry : *snapshot.state().indexes) {
    if (entry.kind == IndexKind::kVaFile) va = entry.index.get();
  }
  if (va == nullptr) return;
  for (const TimedRequest& timed : requests) {
    if (timed.cls != QueryClass::kRange) continue;
    incdb::RangeQuery query;
    query.semantics = timed.request.semantics;
    for (const NamedTerm& term : timed.request.terms) {
      auto resolved = incdb::ResolveNamedTerm(snapshot.table(), term);
      report->Op(resolved.status(), "ResolveNamedTerm");
      if (!resolved.ok()) return;
      query.terms.push_back(resolved.value());
    }
    const Span span("vafile.probe");
    auto plan = incdb::plan::PlanRangeOverIndex(*va, query);
    report->Op(plan.status(), "PlanRangeOverIndex");
    if (!plan.ok()) return;
    incdb::QueryStats stats;
    report->Op(
        incdb::plan::ExecutePlanToBitVector(&plan.value(), &stats).status(),
        "ExecutePlanToBitVector");
    layers->va_candidates += stats.candidates;
    layers->va_false_positives += stats.false_positives;
  }
}

}  // namespace

int RunPaperReads(const Options& options, Report* report) {
  Sizes sizes;
  if (options.tiny) sizes = Sizes{20000, 40, 3, 20};
  const std::vector<TimedRequest> requests = BuildRequests(sizes, options.seed);
  report->Header("rows", static_cast<double>(sizes.rows));
  report->Header("requests", static_cast<double>(requests.size()));

  Layers layers;
  Samples setup;
  std::optional<Database> db;
  for (int i = 0; i < kSetupRepeats; ++i) {
    db.reset();
    const Clock::time_point start = Clock::now();
    db = SetUp(sizes, options.seed, report, &layers);
    if (!db.has_value()) return 1;
    setup.Add(SecondsSince(start));
  }
  report->Metric("setup_s", setup.Median(), "s");
  report->Metric("index_bytes_per_row",
                 static_cast<double>(db->IndexSizeInBytes()) /
                     static_cast<double>(sizes.rows),
                 "B/row");

  // Whole passes over the fixed list until the budget is spent.
  QueryFigures figures;
  std::vector<uint64_t> counts;
  const Clock::time_point start = Clock::now();
  int passes = 0;
  do {
    counts = RunMeasuredPass(*db, requests, report, &figures, &layers);
    ++passes;
  } while (SecondsSince(start) < options.seconds);
  report->Detail("passes", passes);
  CheckAgainstOracle(*db, requests, counts, 23, report);
  figures.ReportTo(report);

  if (options.trace) ProbeVaFile(*db, requests, report, &layers);
  db.reset();
  if (options.trace) {
    ReportLayers(layers, report);
  } else {
    WriteFigures writes;
    RunWriteEpilogue(options, report, &writes, &layers);
    writes.ReportTo(report);
  }
  return 0;
}

}  // namespace perfbench
