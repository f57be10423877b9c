#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/expr.h"
#include "query/parser.h"
#include "query/query.h"
#include "trace.h"

namespace perfbench {
namespace {

// Every digit a double carries, as the metric line requires.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<int> CpusIn(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Header(const std::string& key, const std::string& value) {
  header_[key] = Quoted(value);
}

void Report::Header(const std::string& key, double value) {
  header_[key] = Number(value);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = MetricValue{value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = MetricValue{value, unit};
}

void Report::Detail(const std::string& key, double value) {
  details_[key] = value;
}

void Report::Op(const incdb::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
  }
}

void Report::Ops(uint64_t attempted,
                 const std::vector<incdb::Status>& failures,
                 const char* what) {
  attempted_ += attempted - failures.size();
  for (const incdb::Status& status : failures) Op(status, what);
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               what.c_str());
}

std::string Report::MetricLine(bool layers) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : layers ? layers_ : metrics_) {
    out << (first ? "" : ", ") << Quoted(name) << ": {\"value\": "
        << Number(metric.value) << ", \"unit\": " << Quoted(metric.unit)
        << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::ResultFile(bool layers) const {
  std::ostringstream out;
  out << "{\n  \"header\": {";
  bool first = true;
  for (const auto& [key, value] : header_) {
    out << (first ? "" : ",") << "\n    " << Quoted(key) << ": " << value;
    first = false;
  }
  out << "\n  },\n  \"details\": {";
  first = true;
  for (const auto& [key, value] : details_) {
    out << (first ? "" : ",") << "\n    " << Quoted(key) << ": "
        << Number(value);
    first = false;
  }
  out << "\n  },\n  \"end_to_end\": " << MetricLine(false)
      << ",\n  \"per_layer\": " << MetricLine(true)
      << ",\n  \"printed\": \"" << (layers ? "per_layer" : "end_to_end")
      << "\"\n}\n";
  return out.str();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const double n = static_cast<double>(sorted.size());
  const size_t rank =
      std::min(sorted.size() - 1,
               static_cast<size_t>(std::max(1.0, std::ceil(q * n))) - 1);
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

double Samples::WindowedQuantile(double q, size_t window) const {
  if (values_.size() < window) return Quantile(q);
  Samples per_window;
  for (size_t begin = 0; begin + window <= values_.size(); begin += window) {
    Samples one;
    one.values_.assign(values_.begin() + begin,
                       values_.begin() + begin + window);
    per_window.Add(one.Quantile(q));
  }
  return per_window.Median();
}

incdb::Result<uint64_t> OracleCount(const incdb::Snapshot& snapshot,
                                    const incdb::QueryRequest& request) {
  const incdb::Table& table = snapshot.table();
  const uint64_t rows = snapshot.num_rows();
  uint64_t count = 0;
  if (request.shape == incdb::QueryRequest::Shape::kText) {
    INCDB_ASSIGN_OR_RETURN(const incdb::QueryExpr expr,
                           incdb::ParseQuery(request.text, table));
    for (uint64_t row = 0; row < rows; ++row) {
      if (snapshot.IsDeleted(static_cast<uint32_t>(row))) continue;
      if (incdb::ExprMatches(table, row, expr, request.semantics)) ++count;
    }
    return count;
  }
  incdb::RangeQuery query;
  query.semantics = request.semantics;
  for (const incdb::NamedTerm& term : request.terms) {
    INCDB_ASSIGN_OR_RETURN(const incdb::QueryTerm resolved,
                           incdb::ResolveNamedTerm(table, term));
    query.terms.push_back(resolved);
  }
  for (uint64_t row = 0; row < rows; ++row) {
    if (snapshot.IsDeleted(static_cast<uint32_t>(row))) continue;
    if (incdb::RowMatches(table, row, query)) ++count;
  }
  return count;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

CpuTour::CpuTour() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  // The first tour runs before any thread has been moved, so this is the
  // process's whole CPU set.
  static const std::vector<int> cpus = CpusIn(saved_);
  cpus_ = &cpus;
}

CpuTour::~CpuTour() {
  if (moved_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuTour::Next() {
  if (cpus_ == nullptr || cpus_->size() < 2) return;
  // One turn counter for every tour, so short tours still cover every CPU.
  static std::atomic<size_t> turn{0};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET((*cpus_)[turn++ % cpus_->size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) moved_ = true;
}

namespace {

// Requests per p99 window: ten beyond the p99 in every window.
constexpr size_t kP99Window = 1000;

// Adds `name` (a p99) with its sample count as a detail. The p99 is the
// median over consecutive windows of kP99Window requests of each window's
// p99. The shared host stalls the VM in episodes (CPU steal went up
// fifteenfold in one). Over whole runs, one such episode lifted p99 two to
// five times in four runs of ten; per window it lifts only the windows it
// falls in.
void ReportP99(Report* report, const std::string& name, const Samples& ms) {
  report->Metric(name, ms.WindowedQuantile(0.99, kP99Window), "ms");
  report->Detail(name + ".samples", static_cast<double>(ms.size()));
  report->Detail(name + ".windows",
                 static_cast<double>(ms.size() / kP99Window));
  if (ms.size() < kP99Window) {
    std::fprintf(stderr,
                 "perfbench: %s rests on %zu samples (fewer than ten beyond "
                 "the p99)\n",
                 name.c_str(), ms.size());
  }
}

// Requests between two moves of the query thread (CpuTour): tens of
// milliseconds of queries, so a move's cold caches weigh little.
constexpr size_t kRequestsPerCpu = 100;

// CPU time of the calling thread, in milliseconds.
double ThreadCpuMillis() {
  timespec now;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

// Runs `requests` once, in order, in a closed loop on this thread, and
// records latencies and throughput blocks in `figures`; traced requests add
// their routing and counters to `layers`. Returns the answers' counts.
//
// A request's latency is the CPU time this thread spends in the call. The
// request runs serially on this thread and reads only memory (stores sit
// in the page cache), so on a machine of its own that is its wall time. On
// a shared host wall time also holds the stretches in which the vCPU was
// taken away: by the hypervisor for another tenant (steal, which the
// kernel leaves out of thread CPU time) or by the scheduler. In one steal
// episode whole-run p99 rose two to five times while p50 moved 5%; four
// busy loops beside a run did the same (p99 0.44 -> 4.3 ms). query_qps
// stays a wall-clock rate and shows such stretches.

std::vector<uint64_t> RunQueryPass(const incdb::Database& db,
                                   const std::vector<TimedRequest>& requests,
                                   Report* report, QueryFigures* figures,
                                   Layers* layers) {
  std::vector<uint64_t> counts(requests.size(), 0);
  CpuTour tour;
  Clock::time_point block_start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % kRequestsPerCpu == 0) tour.Next();
    const double start_ms = ThreadCpuMillis();
    const incdb::Result<incdb::QueryResult> result =
        RunRequest(db, requests[i].request);
    const double ms = ThreadCpuMillis() - start_ms;
    report->Op(result.status(), "query");
    if (result.ok()) {
      counts[i] = result->count;
      figures->For(requests[i].cls).Add(ms);
      if (TracingEnabled()) layers->CountQuery(result->routing, result->stats);
    }
    if ((i + 1) % kQpsBlock == 0) {
      figures->qps.Add(static_cast<double>(kQpsBlock) /
                       SecondsSince(block_start));
      block_start = Clock::now();
    }
  }
  return counts;
}

}  // namespace

Samples& QueryFigures::For(QueryClass cls) {
  switch (cls) {
    case QueryClass::kPoint:
      return point_ms;
    case QueryClass::kRange:
      return range_ms;
    case QueryClass::kExpr:
      return expr_ms;
  }
  return point_ms;
}

void QueryFigures::ReportTo(Report* report) const {
  report->Metric("point_p50_ms", point_ms.Median(), "ms");
  ReportP99(report, "point_p99_ms", point_ms);
  report->Metric("range_p50_ms", range_ms.Median(), "ms");
  ReportP99(report, "range_p99_ms", range_ms);
  report->Metric("expr_p50_ms", expr_ms.Median(), "ms");
  report->Detail("expr_p50_ms.samples", static_cast<double>(expr_ms.size()));
  report->Metric("query_qps", qps.Median(), "1/s");
  report->Detail("query_qps.blocks", static_cast<double>(qps.size()));
}

void Layers::CountQuery(const incdb::RoutingDecision& routing,
                        const incdb::QueryStats& stats) {
  ++queries;
  bitvectors += stats.bitvectors_accessed;
  words_touched += stats.words_touched;
  words_decoded += stats.words_decoded;
  va_candidates += stats.candidates;
  va_false_positives += stats.false_positives;
  delta_rows += stats.rows_scanned;
  segments_scanned += stats.segments_scanned;
  segments_pruned += stats.segments_pruned;
  switch (routing.index_kind) {
    case incdb::IndexKind::kBitmapEquality:
      ++routes["bee"];
      break;
    case incdb::IndexKind::kBitmapRange:
      ++routes["bre"];
      break;
    case incdb::IndexKind::kBitmapHierarchical:
      ++routes["hier"];
      break;
    case incdb::IndexKind::kVaFile:
      ++routes["va"];
      break;
    case incdb::IndexKind::kSequentialScan:
      ++routes["scan"];
      break;
    default:
      ++routes["other"];
      break;
  }
}

void Layers::CountCompaction(const incdb::CompactionStats& before,
                             const incdb::CompactionStats& after) {
  ++compactions;
  segments_rebuilt += after.segments_rebuilt - before.segments_rebuilt;
  segments_reused += after.segments_reused - before.segments_reused;
  reclaimed_rows += after.reclaimed_rows - before.reclaimed_rows;
}

namespace {

double PerUnit(uint64_t total, uint64_t units) {
  return units == 0 ? 0
                    : static_cast<double>(total) / static_cast<double>(units);
}

double MedianMicros(const std::vector<SpanRecord>& spans, const char* name) {
  Samples samples;
  for (const double us : SpanMicros(spans, name)) samples.Add(us);
  return samples.Median();
}

}  // namespace

void ReportLayers(const Layers& l, Report* report) {
  const std::vector<SpanRecord> spans = CollectSpans();
  const auto median_us = [&](const char* name) {
    return MedianMicros(spans, name);
  };
  report->Layer("table.generate_s", median_us("table.generate") / 1e6,
                "s");
  report->Layer("bitmap.build_ms.bee", median_us("core.BuildIndex.bee") / 1e3,
                "ms");
  report->Layer("bitmap.build_ms.bre", median_us("core.BuildIndex.bre") / 1e3,
                "ms");
  report->Layer("bitmap.build_ms.hier",
                median_us("core.BuildIndex.hier") / 1e3, "ms");
  report->Layer("vafile.build_ms", median_us("core.BuildIndex.va") / 1e3, "ms");
  for (const char* kind : {"bee", "bre", "hier"}) {
    const auto it = l.bytes_per_row.find(kind);
    report->Layer(std::string("bitmap.bytes_per_row.") + kind,
                  it == l.bytes_per_row.end() ? 0 : it->second.Median(),
                  "B/row");
  }
  const auto va = l.bytes_per_row.find("va");
  report->Layer("vafile.bytes_per_row",
                va == l.bytes_per_row.end() ? 0 : va->second.Median(), "B/row");

  report->Layer("query.parse_us_p50", median_us("query.ParseQuery"), "us");
  report->Layer("plan.plan_us_p50", median_us("plan.PlanRequest"), "us");
  report->Layer("plan.execute_ms_p50", median_us("plan.ExecutePlan") / 1e3,
                "ms");
  for (const char* kind : {"bee", "bre", "hier", "va", "scan"}) {
    const auto it = l.routes.find(kind);
    report->Layer(std::string("plan.route_share.") + kind,
                  PerUnit(it == l.routes.end() ? 0 : it->second, l.queries),
                  "ratio");
  }
  report->Layer("bitmap.bitvectors_per_query", PerUnit(l.bitvectors, l.queries),
                "count/query");
  report->Layer("compression.words_touched_per_query",
                PerUnit(l.words_touched, l.queries), "count/query");
  report->Layer("compression.words_decoded_per_query",
                PerUnit(l.words_decoded, l.queries), "count/query");
  report->Layer("vafile.useful_ratio",
                PerUnit(l.va_candidates - l.va_false_positives,
                        l.va_candidates),
                "ratio");
  report->Layer("plan.delta_rows_per_query", PerUnit(l.delta_rows, l.queries),
                "count/query");
  report->Layer("plan.delta_scan_ms_p50", l.delta_scan_ms.Median(), "ms");
  report->Layer("plan.segments_pruned_ratio",
                PerUnit(l.segments_pruned,
                        l.segments_pruned + l.segments_scanned),
                "ratio");

  report->Layer("core.snapshot_us_p50", median_us("core.GetSnapshot"), "us");
  Samples inserts;
  for (const double us : SpanMicros(spans, "core.Insert")) inserts.Add(us);
  report->Layer("core.insert_us_p50", inserts.Median(), "us");
  report->Layer("core.insert_us_p99", inserts.Quantile(0.99), "us");
  report->Detail("core.insert_us.samples", static_cast<double>(inserts.size()));
  report->Layer("core.seal_ms_p50", l.seal_ms.Median(), "ms");
  report->Layer("core.delete_us_p50", median_us("core.Delete"), "us");
  report->Layer("core.compact_ms_p50", median_us("core.CompactNow") / 1e3,
                "ms");
  report->Layer("core.segments_rebuilt",
                PerUnit(l.segments_rebuilt, l.compactions), "count/compaction");
  report->Layer("core.segments_reused",
                PerUnit(l.segments_reused, l.compactions), "count/compaction");
  report->Layer("core.reclaimed_rows", PerUnit(l.reclaimed_rows, l.compactions),
                "count/compaction");

  report->Layer("server.exec_p50_us", l.server_exec_p50_us, "us");
  report->Layer("server.transport_p50_us",
                l.client_p50_us > 0 ? l.client_p50_us - l.server_exec_p50_us
                                    : 0,
                "us");
  report->Layer("server.wire_encode_us_p50",
                median_us("server.EncodeQueryRequest"), "us");
  report->Layer("server.wire_decode_us_p50",
                median_us("server.DecodeQueryResult"), "us");
  report->Layer("server.queue_depth_max",
                static_cast<double>(l.queue_depth_max), "count");

  report->Layer("storage.save_ms_p50", median_us("storage.Save") / 1e3, "ms");
  report->Layer("storage.bytes_written_per_save",
                PerUnit(l.bytes_written, l.saves), "B");
  report->Layer("storage.files_written_per_save",
                PerUnit(l.files_written, l.saves), "count");
  report->Layer("storage.open_verified_ms",
                median_us("storage.Open.verified") / 1e3, "ms");
  report->Layer("storage.open_unverified_ms",
                median_us("storage.Open.unverified") / 1e3, "ms");
  report->Layer("storage.first_query_ms",
                median_us("storage.first_query") / 1e3, "ms");
  report->Layer("storage.store_bytes", l.store_bytes.Median(), "B");

  report->Layer("trace.overhead_ratio",
                l.untraced_qps.size() == 0
                    ? 0
                    : l.traced_qps.Median() / l.untraced_qps.Median(),
                "ratio");
}

incdb::Result<incdb::QueryResult> RunRequest(
    const incdb::Database& db, const incdb::QueryRequest& request) {
  if (!TracingEnabled()) return db.Run(request);
  const Span root("query", NewRequestId());
  incdb::Snapshot snapshot;
  {
    const Span span("core.GetSnapshot");
    snapshot = db.GetSnapshot();
  }
  if (request.shape == incdb::QueryRequest::Shape::kText) {
    const Span span("query.ParseQuery");
    INCDB_RETURN_IF_ERROR(
        incdb::ParseQuery(request.text, snapshot.table()).status());
  }
  incdb::Result<incdb::plan::PhysicalPlan> plan = incdb::Status::OK();
  {
    const Span span("plan.PlanRequest");
    plan = incdb::plan::PlanRequest(snapshot, request);
  }
  INCDB_RETURN_IF_ERROR(plan.status());
  incdb::plan::ExecOptions exec;
  exec.num_threads = request.parallelism;
  incdb::Result<incdb::QueryResult> result = incdb::Status::OK();
  {
    const Span span("plan.ExecutePlan");
    result = incdb::plan::ExecutePlan(&plan.value(), exec);
  }
  if (result.ok()) result->routing = plan->routing;
  return result;
}

std::vector<uint64_t> RunMeasuredPass(const incdb::Database& db,
                                      const std::vector<TimedRequest>& requests,
                                      Report* report, QueryFigures* figures,
                                      Layers* layers) {
  if (!TracingEnabled()) {
    return RunQueryPass(db, requests, report, figures, layers);
  }
  QueryFigures untraced;
  SetTracing(false);
  RunQueryPass(db, requests, report, &untraced, layers);
  SetTracing(true);
  layers->untraced_qps.Append(untraced.qps);
  QueryFigures traced;
  std::vector<uint64_t> counts =
      RunQueryPass(db, requests, report, &traced, layers);
  layers->traced_qps.Append(traced.qps);
  return counts;
}

void CheckAgainstOracle(const incdb::Database& db,
                        const std::vector<TimedRequest>& requests,
                        const std::vector<uint64_t>& counts, size_t stride,
                        Report* report) {
  const incdb::Snapshot snapshot = db.GetSnapshot();
  for (size_t i = 0; i < requests.size(); i += stride) {
    const incdb::Result<uint64_t> expected =
        OracleCount(snapshot, requests[i].request);
    if (!expected.ok() || expected.value() != counts[i]) {
      report->Mismatch("request " + std::to_string(i) + ": index count " +
                       std::to_string(counts[i]) + ", oracle " +
                       (expected.ok() ? std::to_string(expected.value())
                                      : expected.status().ToString()));
    }
  }
}

void WriteFigures::ReportTo(Report* report) const {
  report->Metric("insert_rows_per_s", inserts.Median(), "1/s");
  report->Metric("delete_rows_per_s", deletes.Median(), "1/s");
  report->Detail("insert_rows_per_s.batches",
                 static_cast<double>(inserts.batches()));
  report->Detail("delete_rows_per_s.batches",
                 static_cast<double>(deletes.batches()));
  report->Metric("compact_ms", compact_ms.Median(), "ms");
  report->Metric("save_ms", save_ms.Median(), "ms");
  report->Metric("open_ms", open_ms.Median(), "ms");
  report->Metric("store_bytes_per_user_byte", store_ratio.Median(), "ratio");
  report->Detail("compact_ms.samples", static_cast<double>(compact_ms.size()));
  report->Detail("save_ms.samples", static_cast<double>(save_ms.size()));
  report->Detail("open_ms.samples", static_cast<double>(open_ms.size()));
}

}  // namespace perfbench
