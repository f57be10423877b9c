// served_ingest: reads beside a paced writer, against a served database.
//
// The daemon's default layout (registry BEE + BRE, segments off) over
// ~500k rows, with a loopback server::Server (two workers) started in
// set-up. Two reader threads run a fixed list of count-only point, range
// and text requests in a closed loop. One writer thread is paced by
// completed queries, not by a clock: for every completed query it inserts
// kInsertsPerQuery rows and deletes kDeletesPerQuery rows, and it calls
// CompactNow once per period of Sizes::period_queries queries. Equal
// insert and delete rates keep the table size stationary, and a run ends
// on a period boundary, so every run samples the same sawtooth of tail
// lengths. Threads: 2 readers + 1 writer <= 4 cores.
//
// Snapshot churn, Insert/Delete and the plan's DeltaScan over the
// uncovered tail dominate: registry indexes cover only the rows present at
// their last build, the tail grows with every insert, and each compaction
// rebuilds the indexes and resets it. Selective probes keep bitmap kernel
// work small.
//
// The end-to-end figures come from in-process readers (Database::Run). On
// a 4-vCPU VM, the same readers over the loopback wire measured host CPU
// steal more than the library: every request crosses four thread
// wake-ups, and point_p99_ms over five seeds spread 0.4-0.5 of its
// median, against 0.05 in process. The traced run
// therefore adds a third phase over the wire, which yields the server.*
// figures and the transport share of served latency.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "table/generator.h"
#include "trace.h"

namespace perfbench {
namespace {

using incdb::Database;
using incdb::MissingSemantics;
using incdb::NamedTerm;
using incdb::QueryRequest;
using incdb::Value;
namespace server = incdb::server;

struct Attribute {
  uint32_t cardinality;
  double missing_rate;
};

constexpr Attribute kAttrs[] = {{10, 0.1},  {20, 0.2},  {50, 0.1},
                                {100, 0.3}, {200, 0.1}, {1000, 0.2}};
constexpr size_t kNumAttrs = std::size(kAttrs);
constexpr size_t kReaders = 2;
constexpr uint64_t kInsertsPerQuery = 16;
constexpr uint64_t kDeletesPerQuery = 16;
// In a traced run every this-many-th request is also planned and executed
// in-process to split its cost into plan, execute and DeltaScan.
constexpr uint64_t kShadowEvery = 8;

struct Sizes {
  uint64_t rows = 500000;
  /// Queries per compaction period. The uncovered tail grows from 0 to
  /// kInsertsPerQuery x period_queries rows over a period, and a load ends
  /// on a period boundary, so every run samples the same sawtooth.
  uint64_t period_queries = 4000;
  size_t points = 900;
  size_t ranges = 900;
  size_t exprs = 200;
};

std::string Name(size_t attr) { return "s" + std::to_string(attr); }

std::vector<TimedRequest> BuildRequests(const Sizes& sizes, uint64_t seed) {
  incdb::Rng shape(kShapeSeed);
  incdb::Rng rng(seed * 0xD1B54A32D192ED03ull + 5);
  std::vector<TimedRequest> requests;
  const auto semantics = [](size_t i) {
    return i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch;
  };
  const auto two_attrs = [&](size_t first) {
    const size_t a =
        static_cast<size_t>(shape.UniformInt(first, kNumAttrs - 1));
    size_t b = static_cast<size_t>(shape.UniformInt(first, kNumAttrs - 2));
    if (b >= a) ++b;
    return std::make_pair(a, b);
  };
  const auto value = [&](size_t a) {
    return static_cast<Value>(rng.UniformInt(1, kAttrs[a].cardinality));
  };
  for (size_t i = 0; i < sizes.points; ++i) {
    const auto [a, b] = two_attrs(0);
    const Value va = value(a);
    const Value vb = value(b);
    requests.push_back(
        {QueryClass::kPoint,
         QueryRequest::Terms({{Name(a), va, va}, {Name(b), vb, vb}},
                             semantics(i))
             .CountOnly()});
  }
  // Ranges over the wider domains (C >= 50), 5% of each domain per term.
  const auto interval = [&](size_t a) {
    const Value width =
        static_cast<Value>(std::max<uint32_t>(2, kAttrs[a].cardinality / 20));
    const Value lo = static_cast<Value>(
        rng.UniformInt(1, kAttrs[a].cardinality - width + 1));
    return NamedTerm{Name(a), lo, static_cast<Value>(lo + width - 1)};
  };
  for (size_t i = 0; i < sizes.ranges; ++i) {
    const auto [a, b] = two_attrs(2);
    requests.push_back(
        {QueryClass::kRange,
         QueryRequest::Terms({interval(a), interval(b)}, semantics(i))
             .CountOnly()});
  }
  for (size_t i = 0; i < sizes.exprs; ++i) {
    const auto [a, b] = two_attrs(2);
    const NamedTerm range = interval(a);
    const std::string text =
        range.attribute + " IN [" + std::to_string(range.lo) + "," +
        std::to_string(range.hi) + "]" + (i % 2 == 0 ? " OR " : " AND NOT ") +
        Name(b) + " = " + std::to_string(value(b));
    requests.push_back(
        {QueryClass::kExpr,
         QueryRequest::Text(text, semantics(i)).CountOnly()});
  }
  const std::vector<uint32_t> order =
      shape.Permutation(static_cast<uint32_t>(requests.size()));
  std::vector<TimedRequest> shuffled;
  for (const uint32_t i : order) shuffled.push_back(requests[i]);
  return shuffled;
}

/// The served stack. Members are destroyed in reverse order: clients,
/// then the server, then the database it borrows.
struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;
  std::vector<server::Client> clients;

  ~Served() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
  }
};

std::unique_ptr<Served> SetUp(const Sizes& sizes, uint64_t seed,
                              Report* report) {
  const Span setup("setup");
  auto served = std::make_unique<Served>();
  {
    // Generation and index builds step round the CPUs (see CpuTour). The
    // tour ends before the server starts: its threads would inherit a CPU.
    CpuTour tour;
    tour.Next();
    incdb::DatasetSpec spec;
    for (size_t a = 0; a < kNumAttrs; ++a) {
      spec.attributes.push_back(
          {Name(a), kAttrs[a].cardinality, kAttrs[a].missing_rate, 0.0});
    }
    spec.num_rows = sizes.rows;
    spec.seed = seed;
    incdb::Result<incdb::Table> table = incdb::Status::OK();
    {
      const Span span("table.generate");
      table = incdb::GenerateTable(spec);
    }
    report->Op(table.status(), "GenerateTable");
    if (!table.ok()) return nullptr;
    auto db = Database::FromTable(std::move(table).value());
    report->Op(db.status(), "FromTable");
    if (!db.ok()) return nullptr;
    served->db = std::make_unique<Database>(std::move(db).value());
    incdb::Status status;
    tour.Next();
    {
      const Span span("core.BuildIndex.bee");
      status = served->db->BuildIndex(incdb::IndexKind::kBitmapEquality);
    }
    report->Op(status, "BuildIndex");
    tour.Next();
    {
      const Span span("core.BuildIndex.bre");
      status = served->db->BuildIndex(incdb::IndexKind::kBitmapRange);
    }
    report->Op(status, "BuildIndex");
    if (!status.ok()) return nullptr;
  }
  server::ServerOptions options;
  options.workers = 2;
  {
    const Span span("server.Start");
    auto started = server::Server::Start(served->db.get(), options);
    report->Op(started.status(), "Server::Start");
    if (!started.ok()) return nullptr;
    served->server = std::move(started).value();
  }
  for (size_t c = 0; c < kReaders; ++c) {
    const Span span("server.Connect");
    auto client = server::Client::Connect("127.0.0.1", served->server->port());
    report->Op(client.status(), "Client::Connect");
    if (!client.ok()) return nullptr;
    served->clients.push_back(std::move(client).value());
  }
  return served;
}

/// What one reader thread measured; merged after the threads are joined.
struct ReaderTally {
  QueryFigures figures;
  /// Client-side latencies of traced requests over the wire, in order.
  std::vector<double> wire_us;
  /// (completed-query ordinal, time) at every kQpsBlock-th completion.
  std::vector<std::pair<uint64_t, Clock::time_point>> blocks;
  uint64_t attempted = 0;
  std::vector<incdb::Status> failures;
};

/// State the reader threads and the writer share.
struct Shared {
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> stop{false};
  uint64_t period_queries = 0;
  /// Completed-query count at which the readers stop: the first period
  /// boundary after the time budget is spent.
  std::atomic<uint64_t> stop_at{UINT64_MAX};
  /// Completed queries when the readers stopped; the writer catches up to
  /// it before it exits.
  std::atomic<uint64_t> final_count{0};
  std::mutex layers_mu;
};

/// Plans `request` in-process at the current epoch and executes the plan
/// with and without its DeltaScan operator (the sink's optional second
/// child, over the tail the indexes do not cover), under spans. The
/// difference between the two executions is the DeltaScan's share.
void Shadow(const Database& db, const QueryRequest& request, Layers* layers,
            std::mutex* layers_mu) {
  incdb::Snapshot snapshot;
  {
    const Span span("core.GetSnapshot");
    snapshot = db.GetSnapshot();
  }
  incdb::Result<incdb::plan::PhysicalPlan> plan = incdb::Status::OK();
  {
    const Span span("plan.PlanRequest");
    plan = incdb::plan::PlanRequest(snapshot, request);
  }
  auto main_only = incdb::plan::PlanRequest(snapshot, request);
  if (!plan.ok() || !main_only.ok()) return;
  const bool has_delta = main_only->root->children.size() > 1;
  main_only->root->children.resize(1);
  const Clock::time_point start = Clock::now();
  incdb::Result<incdb::QueryResult> result = incdb::Status::OK();
  {
    const Span span("plan.ExecutePlan");
    result = incdb::plan::ExecutePlan(&plan.value(), {});
  }
  const Clock::time_point middle = Clock::now();
  if (has_delta) {
    const Span span("plan.ExecutePlan.without_delta");
    (void)incdb::plan::ExecutePlan(&main_only.value(), {}).ok();
  }
  const Clock::time_point end = Clock::now();
  if (!result.ok()) return;
  const std::lock_guard<std::mutex> lock(*layers_mu);
  layers->CountQuery(plan->routing, result->stats);
  layers->delta_scan_ms.Add(
      has_delta ? std::chrono::duration<double, std::milli>(
                      (middle - start) - (end - middle))
                      .count()
                : 0.0);
}

/// Root span names by path and request class, so a span file can be cut
/// by both (perfbench/spans.py --under).
constexpr const char* kRootSpan[2][3] = {
    {"local.point", "local.range", "local.expr"},
    {"wire.point", "wire.range", "wire.expr"}};

/// One reader: a closed loop over its share of the request list, in
/// process through Database::Run when `client` is null, else over the wire.
void ReaderLoop(server::Client* client, const Database& db,
                const std::vector<TimedRequest>& requests, size_t first,
                Clock::time_point deadline, Shared* shared, Layers* layers,
                ReaderTally* tally) {
  const bool traced = TracingEnabled();
  uint64_t issued = 0;
  for (size_t i = first; !shared->stop.load(std::memory_order_relaxed);
       i = (i + kReaders) % requests.size()) {
    const TimedRequest& timed = requests[i];
    const Span root(kRootSpan[client != nullptr][static_cast<int>(timed.cls)],
                    traced ? NewRequestId() : 0);
    if (traced && client != nullptr) {
      const Span span("server.EncodeQueryRequest");
      (void)incdb::server::wire::EncodeQueryRequest(timed.request).size();
    }
    const Clock::time_point start = Clock::now();
    incdb::Result<incdb::QueryResult> result = incdb::Status::OK();
    if (client == nullptr) {
      result = RunRequest(db, timed.request);
    } else {
      const Span span("client.Run");
      result = client->Run(timed.request);
    }
    const double ms = MillisSince(start);
    ++tally->attempted;
    if (!result.ok()) {
      tally->failures.push_back(result.status());
    } else {
      tally->figures.For(timed.cls).Add(ms);
      if (traced && client == nullptr) {
        const std::lock_guard<std::mutex> lock(shared->layers_mu);
        layers->CountQuery(result->routing, result->stats);
      } else if (traced) {
        tally->wire_us.push_back(ms * 1e3);
        const std::vector<uint8_t> bytes =
            incdb::server::wire::EncodeQueryResult(result.value());
        const Span span("server.DecodeQueryResult");
        (void)incdb::server::wire::DecodeQueryResult(bytes).ok();
      }
    }
    const uint64_t n =
        shared->completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    shared->completed.notify_one();
    if (n % kQpsBlock == 0) tally->blocks.emplace_back(n, Clock::now());
    if (traced && client != nullptr && ++issued % kShadowEvery == 0) {
      Shadow(db, timed.request, layers, &shared->layers_mu);
    }
    uint64_t stop_at = shared->stop_at.load(std::memory_order_relaxed);
    if (stop_at == UINT64_MAX && Clock::now() >= deadline) {
      const uint64_t period = shared->period_queries;
      const uint64_t boundary = (n / period + 1) * period;
      shared->stop_at.compare_exchange_strong(stop_at, boundary);
      stop_at = shared->stop_at.load();
    }
    if (n >= stop_at) shared->stop.store(true);
  }
}

/// Inserts and deletes at a fixed ratio to completed queries and compacts
/// on a delete count.
class Writer {
 public:
  Writer(Database* db, const server::Server& server, uint64_t seed,
         Shared* shared, Layers* layers)
      : db_(db),
        server_(server),
        shared_(shared),
        layers_(layers),
        rng_(seed * 0xA24BAED4963EE407ull + 9) {
    // Rows an earlier load deleted stay deleted until the next compaction.
    const incdb::Snapshot snapshot = db->GetSnapshot();
    for (uint64_t r = 0; r < snapshot.num_rows(); ++r) {
      deleted_.push_back(snapshot.IsDeleted(static_cast<uint32_t>(r)) ? 1 : 0);
    }
  }

  void Run() {
    const bool traced = TracingEnabled();
    const uint64_t deletes_per_period =
        kDeletesPerQuery * shared_->period_queries;
    uint64_t seen = 0;
    while (true) {
      shared_->completed.wait(seen, std::memory_order_acquire);
      const bool stopping = shared_->stop.load();
      seen = stopping ? shared_->final_count.load()
                      : shared_->completed.load(std::memory_order_acquire);
      while (inserted_ < seen * kInsertsPerQuery ||
             deleted_count_ < seen * kDeletesPerQuery) {
        // Compacting before the first write of the next period, not after
        // the last one of this, leaves a run's final epoch with a full
        // tail and deleted rows for the correctness check.
        if (since_compaction_ >= deletes_per_period) Compact();
        // Interleave inserts and deletes at their target ratio.
        if (inserted_ * kDeletesPerQuery <= deleted_count_ * kInsertsPerQuery) {
          Insert(traced);
        } else {
          Delete(traced);
        }
        if (traced && (inserted_ + deleted_count_) % 64 == 0) {
          const server::wire::ServerStats stats = server_.StatsSnapshot();
          const std::lock_guard<std::mutex> lock(shared_->layers_mu);
          layers_->queue_depth_max =
              std::max(layers_->queue_depth_max, stats.queue_depth);
        }
      }
      if (stopping) return;
    }
  }

  WriteFigures figures;
  uint64_t attempted = 0;
  std::vector<incdb::Status> failures;

 private:
  void Count(const incdb::Status& status) {
    ++attempted;
    if (!status.ok()) failures.push_back(status);
  }

  void Insert(bool traced) {
    for (size_t a = 0; a < kNumAttrs; ++a) {
      row_[a] = rng_.Bernoulli(kAttrs[a].missing_rate)
                    ? incdb::kMissingValue
                    : static_cast<Value>(
                          rng_.UniformInt(1, kAttrs[a].cardinality));
    }
    const Clock::time_point start = Clock::now();
    incdb::Status status;
    if (traced && inserted_ % 64 == 0) {
      const Span span("core.Insert");
      status = db_->Insert(row_);
    } else {
      status = db_->Insert(row_);
    }
    figures.inserts.Add(SecondsSince(start));
    ++inserted_;
    Count(status);
    if (status.ok()) deleted_.push_back(0);
  }

  void Delete(bool traced) {
    uint64_t row = rng_.UniformInt(0, deleted_.size() - 1);
    while (deleted_[row] != 0) row = (row + 1) % deleted_.size();
    const Clock::time_point start = Clock::now();
    incdb::Status status;
    if (traced && deleted_count_ % 16 == 0) {
      const Span span("core.Delete");
      status = db_->Delete(static_cast<uint32_t>(row));
    } else {
      status = db_->Delete(static_cast<uint32_t>(row));
    }
    figures.deletes.Add(SecondsSince(start));
    ++deleted_count_;
    ++since_compaction_;
    Count(status);
    if (status.ok()) deleted_[row] = 1;
  }

  void Compact() {
    const incdb::CompactionStats before = db_->GetCompactionStats();
    const Clock::time_point start = Clock::now();
    incdb::Status status;
    {
      const Span span("core.CompactNow");
      status = db_->CompactNow();
    }
    figures.compact_ms.Add(MillisSince(start));
    Count(status);
    {
      const std::lock_guard<std::mutex> lock(shared_->layers_mu);
      layers_->CountCompaction(before, db_->GetCompactionStats());
    }
    // Compaction drops the deleted rows and renumbers the survivors.
    deleted_.assign(db_->num_rows(), 0);
    since_compaction_ = 0;
  }

  Database* db_;
  const server::Server& server_;
  Shared* shared_;
  Layers* layers_;
  incdb::Rng rng_;
  std::vector<Value> row_ = std::vector<Value>(kNumAttrs);
  /// Deletion flags of the current row numbering.
  std::vector<uint8_t> deleted_;
  uint64_t inserted_ = 0;
  uint64_t deleted_count_ = 0;
  uint64_t since_compaction_ = 0;
};

/// Runs the readers (in process, or over the wire when `over_wire`) and
/// the writer for `seconds`, rounded up to a whole compaction period;
/// returns the readers' tallies.
std::vector<ReaderTally> RunLoad(Served* served,
                                 const std::vector<TimedRequest>& requests,
                                 const Sizes& sizes, bool over_wire,
                                 uint64_t seed, double seconds, Report* report,
                                 Layers* layers, WriteFigures* writes) {
  // Untimed: every load starts, like the first, with no tail and no
  // deleted rows (a no-op right after set-up).
  report->Op(served->db->CompactNow(), "CompactNow");
  Shared shared;
  shared.period_queries = sizes.period_queries;
  Writer writer(served->db.get(), *served->server, seed, &shared, layers);
  std::vector<ReaderTally> tallies(kReaders);
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::thread writer_thread([&writer] { writer.Run(); });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLoop(over_wire ? &served->clients[r] : nullptr, *served->db,
                 requests, r, deadline, &shared, layers, &tallies[r]);
    });
  }
  for (std::thread& t : readers) t.join();
  // The writer finishes the writes owed to the completed queries, then
  // exits; the extra increment only wakes it.
  shared.final_count.store(shared.completed.load());
  shared.stop.store(true);
  shared.completed.fetch_add(1);
  shared.completed.notify_all();
  writer_thread.join();

  for (const ReaderTally& tally : tallies) {
    report->Ops(tally.attempted, tally.failures, "query");
  }
  report->Ops(writer.attempted, writer.failures, "write");
  *writes = writer.figures;
  return tallies;
}

QueryFigures Merge(const std::vector<ReaderTally>& tallies) {
  QueryFigures merged;
  std::vector<std::pair<uint64_t, Clock::time_point>> blocks;
  for (const ReaderTally& tally : tallies) {
    merged.point_ms.Append(tally.figures.point_ms);
    merged.range_ms.Append(tally.figures.range_ms);
    merged.expr_ms.Append(tally.figures.expr_ms);
    blocks.insert(blocks.end(), tally.blocks.begin(), tally.blocks.end());
  }
  std::sort(blocks.begin(), blocks.end());
  for (size_t i = 1; i < blocks.size(); ++i) {
    const double seconds =
        std::chrono::duration<double>(blocks[i].second - blocks[i - 1].second)
            .count();
    if (seconds > 0) merged.qps.Add(static_cast<double>(kQpsBlock) / seconds);
  }
  return merged;
}

/// At the final epoch, answers over the wire equal in-process Run and the
/// oracle on every `kStride`-th request.
void CheckFinalEpoch(Served* served, const std::vector<TimedRequest>& requests,
                     Report* report) {
  constexpr size_t kStride = 19;
  const incdb::Snapshot snapshot = served->db->GetSnapshot();
  for (size_t i = 0; i < requests.size(); i += kStride) {
    const QueryRequest& request = requests[i].request;
    const auto remote = served->clients[0].Run(request);
    const auto local = served->db->Run(request);
    const auto oracle = OracleCount(snapshot, request);
    report->Op(remote.status(), "query");
    report->Op(local.status(), "query");
    if (!remote.ok() || !local.ok() || !oracle.ok() ||
        remote->count != local->count || local->count != oracle.value()) {
      report->Mismatch("final-epoch request " + std::to_string(i) +
                       ": wire, in-process and oracle counts disagree");
    }
  }
}

}  // namespace

int RunServedIngest(const Options& options, Report* report) {
  Sizes sizes;
  if (options.tiny) sizes = Sizes{20000, 400, 60, 60, 20};
  const std::vector<TimedRequest> requests = BuildRequests(sizes, options.seed);
  report->Header("rows", static_cast<double>(sizes.rows));
  report->Header("requests", static_cast<double>(requests.size()));
  report->Header("server_workers", 2);
  report->Header("readers", kReaders);

  Layers layers;
  Samples setup;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetupRepeats; ++i) {
    served.reset();
    const Clock::time_point start = Clock::now();
    served = SetUp(sizes, options.seed, report);
    if (served == nullptr) return 1;
    setup.Add(SecondsSince(start));
  }
  report->Metric("setup_s", setup.Median(), "s");
  report->Metric("index_bytes_per_row",
                 static_cast<double>(served->db->IndexSizeInBytes()) /
                     static_cast<double>(sizes.rows),
                 "B/row");

  WriteFigures writes;
  if (options.trace) {
    // A third of the budget each: in-process untraced and traced (for the
    // overhead ratio and the plan/execute split), then over the wire
    // (server and transport figures).
    SetTracing(false);
    const QueryFigures untraced =
        Merge(RunLoad(served.get(), requests, sizes, false, options.seed,
                      options.seconds / 3, report, &layers, &writes));
    SetTracing(true);
    const QueryFigures traced =
        Merge(RunLoad(served.get(), requests, sizes, false, options.seed + 1,
                      options.seconds / 3, report, &layers, &writes));
    layers.untraced_qps.Append(untraced.qps);
    layers.traced_qps.Append(traced.qps);
    // The server's latency ring holds its last 1024 requests; the client
    // side is cut to the same window, the last 512 of each reader.
    Samples wire_us;
    for (const ReaderTally& tally :
         RunLoad(served.get(), requests, sizes, true, options.seed + 2,
                 options.seconds / 3, report, &layers, &writes)) {
      const size_t window = std::min(
          server::ServerMetrics::kLatencyRingSize / kReaders,
          tally.wire_us.size());
      for (size_t i = tally.wire_us.size() - window; i < tally.wire_us.size();
           ++i) {
        wire_us.Add(tally.wire_us[i]);
      }
    }
    layers.client_p50_us = wire_us.Median();
    layers.server_exec_p50_us =
        static_cast<double>(served->server->StatsSnapshot().p50_micros);
  } else {
    Merge(RunLoad(served.get(), requests, sizes, false, options.seed,
                  options.seconds, report, &layers, &writes))
        .ReportTo(report);
  }
  CheckFinalEpoch(served.get(), requests, report);
  served.reset();

  if (options.trace) {
    ReportLayers(layers, report);
  } else {
    WriteFigures storage;
    RunWriteEpilogue(options, report, &storage, &layers);
    writes.save_ms = storage.save_ms;
    writes.open_ms = storage.open_ms;
    writes.store_ratio = storage.store_ratio;
    writes.ReportTo(report);
  }
  return 0;
}

}  // namespace perfbench
