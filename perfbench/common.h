#ifndef INCDB_PERFBENCH_COMMON_H_
#define INCDB_PERFBENCH_COMMON_H_

// Shared plumbing for the benchmark workloads: run options, the report
// every workload fills, sample statistics, and the sequential-scan oracle.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "core/query_api.h"
#include "core/snapshot.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget: a workload repeats whole passes over its fixed
  /// request list (or whole lifecycle cycles) until this much time has been
  /// spent measuring.
  double seconds = 10;
  bool trace = false;
  /// Shrinks every size so the output self-check runs in seconds.
  bool tiny = false;
  /// Directory for the result file and the span file.
  std::string out_dir = ".bench_build/perfbench-results";
  /// Scratch directory for store directories.
  std::string work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
};

/// Everything one run reports: header, metrics, correctness and operation
/// accounting. main.cc prints it.
class Report {
 public:
  void Header(const std::string& key, const std::string& value);
  void Header(const std::string& key, double value);
  /// An end-to-end metric (printed by an untraced run).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (printed by a traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A supporting figure written to the result file only (sample counts,
  /// notes), never to the metric line.
  void Detail(const std::string& key, double value);

  /// Counts one operation; a non-OK status counts as failed (kOverloaded
  /// rejections included) and is echoed to stderr.
  void Op(const incdb::Status& status, const char* what);
  /// Counts `attempted` operations of which `failures` failed.
  void Ops(uint64_t attempted, const std::vector<incdb::Status>& failures,
           const char* what);
  /// Records a failed correctness check.
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }

  /// The last stdout line: {"correct":...,"attempted":...,"failed":...,
  /// "metrics":{...}} with the end-to-end metrics, or with the per-layer
  /// metrics when `layers` is set.
  std::string MetricLine(bool layers) const;
  /// The result file: header, details and both metric sets.
  std::string ResultFile(bool layers) const;

 private:
  struct MetricValue {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, std::string> header_;
  std::map<std::string, MetricValue> metrics_;
  std::map<std::string, MetricValue> layers_;
  std::map<std::string, double> details_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Moves the calling thread round the CPUs the process may run on, one CPU
/// per Next(), and puts its CPU set back when destroyed.
///
/// On a shared host the other tenants slow one CPU at a time: a compute
/// loop pinned to each of four CPUs in turn ran 30% slower on some than on
/// others for 5-30 s stretches. A lone thread left where the scheduler put
/// it rides out its CPU's phases, which moved whole-run query medians by
/// 15%; one that visits every CPU in turn weighs each CPU's phases by its
/// share. Threads the library starts meanwhile inherit the one-CPU set, so
/// a call the library parallelises runs its workers on that CPU. That is
/// wanted for the write path's parallel calls (CompactNow, EnableSegments):
/// whether the host runs a second CPU at once decides from minute to minute
/// whether their work overlaps, and compact_ms flipped between 57 and
/// 128 ms on identical code. On one CPU they time their work.
class CpuTour {
 public:
  CpuTour();
  ~CpuTour();
  CpuTour(const CpuTour&) = delete;
  CpuTour& operator=(const CpuTour&) = delete;

  void Next();

 private:
  cpu_set_t saved_;
  const std::vector<int>* cpus_ = nullptr;
  bool moved_ = false;
};

/// Samples of one latency or duration class.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The median, over consecutive windows of `window` samples in the order
  /// they were added, of each window's quantile q. The plain quantile when
  /// there is less than one whole window.
  double WindowedQuantile(double q, size_t window) const;

 private:
  std::vector<double> values_;
};

/// Counts rows visible and not deleted in `snapshot` that match `request`
/// (terms or text), evaluated row by row with the query layer's row
/// predicates — the sequential-scan oracle.
incdb::Result<uint64_t> OracleCount(const incdb::Snapshot& snapshot,
                                    const incdb::QueryRequest& request);

/// Bytes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// setup_s is the median of this many identical set-ups in one run.
constexpr int kSetupRepeats = 5;

/// Seeds the request shapes (attributes, dimensions, order), which are the
/// same for every run so the cost mix does not vary with --seed; the seed
/// picks values and intervals.
constexpr uint64_t kShapeSeed = 0x1DB;

/// Request classes with their own latency metric.
enum class QueryClass { kPoint, kRange, kExpr };

struct TimedRequest {
  QueryClass cls = QueryClass::kPoint;
  incdb::QueryRequest request;
};

/// Latencies and throughput of one workload's query loop.
struct QueryFigures {
  Samples point_ms;
  Samples range_ms;
  Samples expr_ms;
  /// Queries per second over consecutive blocks of kQpsBlock requests.
  Samples qps;

  Samples& For(QueryClass cls);
  /// Reports point/range/expr latency metrics and query_qps.
  void ReportTo(Report* report) const;
};

/// Requests per throughput sample: query_qps is the median over blocks of
/// this many completed requests, never a count over a time window.
constexpr size_t kQpsBlock = 20;

/// Counters and values for the per-layer metrics that do not come from
/// span durations. Filled only by traced runs.
struct Layers {
  uint64_t queries = 0;
  uint64_t bitvectors = 0;
  uint64_t words_touched = 0;
  uint64_t words_decoded = 0;
  uint64_t va_candidates = 0;
  uint64_t va_false_positives = 0;
  uint64_t delta_rows = 0;
  /// Per request: ExecutePlan time minus the same plan's time without its
  /// DeltaScan operator.
  Samples delta_scan_ms;
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;
  /// Queries routed to each structure, keyed by route-share suffix.
  std::map<std::string, uint64_t> routes;

  /// Index bytes per row, keyed by kind suffix (bee, bre, hier, va).
  std::map<std::string, Samples> bytes_per_row;

  /// Insert calls that sealed a segment.
  Samples seal_ms;
  uint64_t compactions = 0;
  uint64_t segments_rebuilt = 0;
  uint64_t segments_reused = 0;
  uint64_t reclaimed_rows = 0;

  uint64_t saves = 0;
  uint64_t bytes_written = 0;
  uint64_t files_written = 0;
  Samples store_bytes;

  /// Server ring p50 (admission to completion) and client-side p50 of the
  /// same traced requests.
  double server_exec_p50_us = 0;
  double client_p50_us = 0;
  uint64_t queue_depth_max = 0;

  Samples traced_qps;
  Samples untraced_qps;

  /// Adds one executed query's routing and counters.
  void CountQuery(const incdb::RoutingDecision& routing,
                  const incdb::QueryStats& stats);
  /// Adds CompactNow's effect: counter deltas between two readings.
  void CountCompaction(const incdb::CompactionStats& before,
                       const incdb::CompactionStats& after);
};

/// Reports every per-layer metric from the recorded spans and `layers`; a
/// metric whose layer the workload did not exercise reads 0.
void ReportLayers(const Layers& layers, Report* report);

/// Runs one request against `db`. Untraced, through Database::Run. With
/// tracing on, split into GetSnapshot -> plan::PlanRequest ->
/// plan::ExecutePlan (plus a separate ParseQuery for text predicates) so
/// planning and execution get their own spans; the result then carries the
/// plan's routing decision.
incdb::Result<incdb::QueryResult> RunRequest(
    const incdb::Database& db, const incdb::QueryRequest& request);

/// One measured pass over `requests`. An untraced run records it in
/// `figures`. A traced run makes the pass twice, untraced then traced, and
/// records both passes' throughput in `layers` for trace.overhead_ratio;
/// `figures` is left alone. Returns the answers' counts.
std::vector<uint64_t> RunMeasuredPass(const incdb::Database& db,
                                      const std::vector<TimedRequest>& requests,
                                      Report* report, QueryFigures* figures,
                                      Layers* layers);

/// Checks the answers of every `stride`-th request against the oracle on
/// `db`'s current snapshot. Untimed.
void CheckAgainstOracle(const incdb::Database& db,
                        const std::vector<TimedRequest>& requests,
                        const std::vector<uint64_t>& counts, size_t stride,
                        Report* report);

/// Rows per second inside one kind of call, as the median over batches of
/// kRateBatch consecutive calls: a ratio over a fixed operation count, so
/// a stall of the host lands in a few batches and not in the figure.
class BatchRate {
 public:
  static constexpr uint64_t kRateBatch = 256;

  void Add(double seconds) {
    batch_seconds_ += seconds;
    if (++in_batch_ == kRateBatch) {
      rates_.Add(static_cast<double>(kRateBatch) / batch_seconds_);
      batch_seconds_ = 0;
      in_batch_ = 0;
    }
  }
  double Median() const { return rates_.Median(); }
  size_t batches() const { return rates_.size(); }

 private:
  Samples rates_;
  double batch_seconds_ = 0;
  uint64_t in_batch_ = 0;
};

/// Figures of the write path.
struct WriteFigures {
  BatchRate inserts;
  BatchRate deletes;
  Samples compact_ms;
  Samples save_ms;
  Samples open_ms;
  Samples store_ratio;

  /// Reports insert/delete rates, compact_ms, save_ms, open_ms and
  /// store_bytes_per_user_byte.
  void ReportTo(Report* report) const;
};

/// A small fixed run of the segment_lifecycle cycle on a side database.
/// paper_reads and served_ingest use it only so that every run prints
/// every end-to-end metric; their own layers are not involved.
void RunWriteEpilogue(const Options& options, Report* report,
                      WriteFigures* figures, Layers* layers);

int RunPaperReads(const Options& options, Report* report);
int RunServedIngest(const Options& options, Report* report);
int RunSegmentLifecycle(const Options& options, Report* report);

}  // namespace perfbench

#endif  // INCDB_PERFBENCH_COMMON_H_
