// segment_lifecycle: the durable write path, in-process, with the segment
// layer switched on at its default 64Ki rows per segment.
//
// A run repeats identical cycles until its time budget is spent. Every
// cycle starts from a copy of the same base store, so cycle k does exactly
// the work of cycle 1 and the figures do not drift with how many cycles a
// fast or slow build fits in. One cycle:
//
//   rounds x { insert a batch that seals at least one segment;
//              CompactNow, reclaiming the previous round's deletes;
//              delete rows concentrated in two sealed segments;
//              incremental Save into the cycle's store directory }
//   then verified and unverified Open, the first query after Open, and a
//   fixed list of selective queries on the clustered `day` attribute
//   against the reopened, mmap'd store.
//
// Storage writer/reader/CRC work, segment seals and compaction dominate.
// The planner only runs zone-map-pruned segment probes and no server runs.

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/segments.h"
#include "table/schema.h"
#include "table/table.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using incdb::Database;
using incdb::MissingSemantics;
using incdb::QueryRequest;
using incdb::Value;

struct Column {
  const char* name;
  uint32_t cardinality;
  double missing_rate;
};

// `day` is clustered and never missing, so its zone maps prune under both
// semantics; the other attributes are uniform with missing cells.
constexpr Column kColumns[] = {{"day", 1024, 0.0},
                               {"a1", 50, 0.1},
                               {"a2", 100, 0.3},
                               {"a3", 10, 0.5},
                               {"a4", 1000, 0.1}};
constexpr size_t kAttrs = std::size(kColumns);

struct CycleConfig {
  uint64_t segment_rows = incdb::SegmentOptions{}.segment_rows;
  uint64_t base_segments = 4;
  int rounds = 4;
  /// Each round inserts segment_rows + extra_rows rows: one seal or more.
  uint64_t extra_rows = 1000;
  /// Deletes per round, split over two sealed segments.
  uint64_t deletes_per_round = 2000;
  int opens = 3;
  size_t point_queries = 600;
  size_t range_queries = 600;
  size_t expr_queries = 200;
};

/// Deterministic row stream: row n of a seed is the same in every cycle.
class RowSource {
 public:
  RowSource(uint64_t seed, uint64_t rows_per_day, uint64_t first_row)
      : rng_(seed ^ (first_row * 0x9E3779B97F4A7C15ull)),
        rows_per_day_(rows_per_day),
        next_(first_row) {}

  void Next(std::vector<Value>* row) {
    (*row)[0] = static_cast<Value>(
        1 + std::min<uint64_t>(kColumns[0].cardinality - 1,
                               next_ / rows_per_day_));
    for (size_t a = 1; a < kAttrs; ++a) {
      (*row)[a] = rng_.Bernoulli(kColumns[a].missing_rate)
                      ? incdb::kMissingValue
                      : static_cast<Value>(
                            rng_.UniformInt(1, kColumns[a].cardinality));
    }
    ++next_;
  }

 private:
  incdb::Rng rng_;
  uint64_t rows_per_day_;
  uint64_t next_;
};

/// The expected table: every acknowledged insert, delete and compaction
/// applied in order.
struct Model {
  std::vector<Value> cells;
  std::vector<uint8_t> deleted;

  uint64_t rows() const { return deleted.size(); }
  void Append(const std::vector<Value>& row) {
    cells.insert(cells.end(), row.begin(), row.end());
    deleted.push_back(0);
  }
  void Compact() {
    std::vector<Value> kept;
    kept.reserve(cells.size());
    for (uint64_t r = 0; r < rows(); ++r) {
      if (deleted[r] != 0) continue;
      kept.insert(kept.end(), cells.begin() + r * kAttrs,
                  cells.begin() + (r + 1) * kAttrs);
    }
    cells = std::move(kept);
    deleted.assign(cells.size() / kAttrs, 0);
  }
};

/// File name -> (size, modification time) of a store directory.
using Listing = std::map<std::string, std::pair<uint64_t, int64_t>>;

Listing ListStore(const std::string& dir) {
  Listing listing;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    listing[entry.path().filename().string()] = {
        entry.file_size(ec),
        static_cast<int64_t>(
            entry.last_write_time(ec).time_since_epoch().count())};
  }
  return listing;
}

class Lifecycle {
 public:
  Lifecycle(const Options& options, const CycleConfig& config,
            const std::string& tag, Report* report, Layers* layers)
      : options_(options),
        config_(config),
        base_dir_(fs::path(options.work_dir) / (tag + "-base")),
        cycle_dir_(fs::path(options.work_dir) / (tag + "-cycle")),
        report_(report),
        layers_(layers) {
    BuildRequests();
  }

  /// Generates the base rows, seals them into segments and saves the base
  /// store every cycle starts from. Returns the set-up time in seconds.
  std::optional<double> SetUp() {
    std::error_code ec;
    fs::remove_all(base_dir_, ec);
    // One CPU for the whole set-up; EnableSegments seals on it.
    CpuTour tour;
    tour.Next();
    const Clock::time_point start = Clock::now();
    const Span setup("setup");
    auto table = incdb::Table::Create(Schema());
    if (!table.ok()) return Fail(table.status(), "Table::Create");
    base_ = Model();
    {
      const Span span("table.generate");
      RowSource source(options_.seed, RowsPerDay(), 0);
      std::vector<Value> row(kAttrs);
      for (uint64_t r = 0; r < BaseRows(); ++r) {
        source.Next(&row);
        const incdb::Status status = table->AppendRow(row);
        if (!status.ok()) return Fail(status, "AppendRow");
        base_.Append(row);
      }
    }
    auto db = Database::FromTable(std::move(table).value());
    if (!db.ok()) return Fail(db.status(), "FromTable");
    incdb::SegmentOptions segments;
    segments.segment_rows = config_.segment_rows;
    {
      const Span span("core.EnableSegments");
      if (!Check(db->EnableSegments(segments), "EnableSegments")) return {};
    }
    // The base store carries deletes too, so every round's CompactNow has
    // rows to reclaim.
    incdb::Rng shape(kShapeSeed + 1);
    incdb::Rng rng(options_.seed * 31 + 5);
    WriteFigures unused;
    DeleteInTwoSegments(&db.value(), &shape, &rng, &base_, &unused);
    {
      const Span span("storage.Save.base");
      if (!Check(db->Save(base_dir_), "Save")) return {};
    }
    return SecondsSince(start);
  }

  /// One identical cycle from the base store; query figures go to
  /// `queries` (see RunMeasuredPass).
  void RunCycle(WriteFigures* writes, QueryFigures* queries) {
    // Hard links, not copies: store files are never rewritten in place,
    // and a copy would leave dirty pages for the first timed fsync.
    std::error_code ec;
    fs::remove_all(cycle_dir_, ec);
    fs::create_directories(cycle_dir_, ec);
    for (const auto& entry : fs::directory_iterator(base_dir_, ec)) {
      fs::create_hard_link(entry.path(), cycle_dir_ / entry.path().filename(),
                           ec);
      if (ec) break;
    }
    if (ec) {
      report_->Op(incdb::Status::IOError(ec.message()), "link base store");
      return;
    }
    auto opened = Database::Open(cycle_dir_);
    report_->Op(opened.status(), "Open");
    if (!opened.ok()) return;
    Database db = std::move(opened).value();
    Model model = base_;
    RowSource source(options_.seed + 1, RowsPerDay(), BaseRows());
    incdb::Rng shape(kShapeSeed);
    incdb::Rng rng(options_.seed * 31 + 7);

    // Rounds grow the store, so one round's compaction or save is not the
    // next one's work; the unit sampled is a cycle's mean per round.
    double compact_ms = 0;
    double save_ms = 0;
    // Each round on the next CPU; CompactNow rebuilds segments on it.
    CpuTour tour;
    for (int round = 0; round < config_.rounds; ++round) {
      tour.Next();
      const Span span("round");
      InsertBatch(&db, &source, &model, writes);
      // Compacting before this round's deletes leaves deleted rows in
      // every saved store, so the reopen check covers the deletion mask.
      {
        const incdb::CompactionStats before = db.GetCompactionStats();
        const Clock::time_point start = Clock::now();
        incdb::Status status;
        {
          const Span compact("core.CompactNow");
          status = db.CompactNow();
        }
        compact_ms += MillisSince(start);
        report_->Op(status, "CompactNow");
        layers_->CountCompaction(before, db.GetCompactionStats());
        model.Compact();
      }
      DeleteInTwoSegments(&db, &shape, &rng, &model, writes);
      save_ms += SaveCycleStore(db);
    }
    writes->compact_ms.Add(compact_ms / config_.rounds);
    writes->save_ms.Add(save_ms / config_.rounds);
    const uint64_t store_bytes = DirectoryBytes(cycle_dir_);
    layers_->store_bytes.Add(static_cast<double>(store_bytes));
    writes->store_ratio.Add(static_cast<double>(store_bytes) /
                            static_cast<double>(db.num_live_rows() * kAttrs *
                                                sizeof(Value)));
    index_bytes_per_row_.Add(IndexBytes(db) /
                             static_cast<double>(db.num_rows()));

    std::optional<Database> reopened = OpenTimed(writes);
    if (!reopened.has_value()) return;
    if (requests_.empty()) return;
    CheckReopened(db, *reopened, model,
                  RunMeasuredPass(*reopened, requests_, report_, queries,
                                  layers_));
  }

  const Samples& index_bytes_per_row() const { return index_bytes_per_row_; }
  uint64_t BaseRows() const {
    return config_.base_segments * config_.segment_rows;
  }

 private:
  static incdb::Schema Schema() {
    std::vector<incdb::AttributeSpec> specs;
    for (const Column& column : kColumns) {
      specs.push_back({column.name, column.cardinality});
    }
    return incdb::Schema(specs);
  }

  // 128 days per segment, so a day range of a few days touches one or two
  // segments and the zone maps prune the rest.
  uint64_t RowsPerDay() const { return config_.segment_rows / 128; }
  uint64_t CycleRows() const {
    return BaseRows() +
           config_.rounds * (config_.segment_rows + config_.extra_rows);
  }

  std::optional<double> Fail(const incdb::Status& status, const char* what) {
    report_->Op(status, what);
    return {};
  }
  bool Check(const incdb::Status& status, const char* what) {
    report_->Op(status, what);
    return status.ok();
  }

  void BuildRequests() {
    incdb::Rng shape(kShapeSeed);
    incdb::Rng rng(options_.seed * 0x2545F4914F6CDD1Dull + 3);
    const Value max_day = static_cast<Value>(
        std::min<uint64_t>(kColumns[0].cardinality,
                           CycleRows() / RowsPerDay()));
    const auto day_range = [&](Value width) {
      const Value lo = static_cast<Value>(shape.UniformInt(1, max_day - width));
      return std::make_pair(lo, static_cast<Value>(lo + width));
    };
    const auto semantics = [&](size_t i) {
      return i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch;
    };
    const auto other = [&]() { return shape.UniformInt(1, kAttrs - 1); };
    for (size_t i = 0; i < config_.point_queries; ++i) {
      const size_t a = static_cast<size_t>(other());
      const Value day = day_range(0).first;
      const Value v =
          static_cast<Value>(rng.UniformInt(1, kColumns[a].cardinality));
      requests_.push_back(
          {QueryClass::kPoint,
           QueryRequest::Terms({{"day", day, day}, {kColumns[a].name, v, v}},
                               semantics(i))
               .CountOnly()});
    }
    for (size_t i = 0; i < config_.range_queries; ++i) {
      const size_t a = static_cast<size_t>(other());
      const auto [lo, hi] =
          day_range(static_cast<Value>(shape.UniformInt(1, 7)));
      const Value width = static_cast<Value>(
          std::max<uint32_t>(1, kColumns[a].cardinality / 5));
      const Value vlo = static_cast<Value>(
          rng.UniformInt(1, kColumns[a].cardinality - width + 1));
      requests_.push_back(
          {QueryClass::kRange,
           QueryRequest::Terms(
               {{"day", lo, hi}, {kColumns[a].name, vlo, vlo + width - 1}},
               semantics(i))
               .CountOnly()});
    }
    for (size_t i = 0; i < config_.expr_queries; ++i) {
      const auto [lo, hi] =
          day_range(static_cast<Value>(shape.UniformInt(1, 7)));
      const std::string text =
          "day IN [" + std::to_string(lo) + "," + std::to_string(hi) +
          "] AND (a1 = " + std::to_string(rng.UniformInt(1, 50)) +
          " OR NOT a3 = " + std::to_string(rng.UniformInt(1, 10)) + ")";
      requests_.push_back(
          {QueryClass::kExpr,
           QueryRequest::Text(text, semantics(i)).CountOnly()});
    }
    // Interleave the classes so slow phases of the host spread over all.
    const std::vector<uint32_t> order =
        shape.Permutation(static_cast<uint32_t>(requests_.size()));
    std::vector<TimedRequest> shuffled;
    for (const uint32_t i : order) shuffled.push_back(requests_[i]);
    requests_ = std::move(shuffled);
  }

  void InsertBatch(Database* db, RowSource* source, Model* model,
                   WriteFigures* writes) {
    const bool traced = TracingEnabled();
    std::vector<Value> row(kAttrs);
    const uint64_t batch = config_.segment_rows + config_.extra_rows;
    for (uint64_t i = 0; i < batch; ++i) {
      source->Next(&row);
      const size_t segments_before = traced ? db->num_segments() : 0;
      const Clock::time_point start = Clock::now();
      incdb::Status status;
      // Every 64th insert is traced: enough for a p99, and the span file
      // stays small.
      if (traced && i % 64 == 0) {
        const Span span("core.Insert");
        status = db->Insert(row);
      } else {
        status = db->Insert(row);
      }
      const double seconds = SecondsSince(start);
      writes->inserts.Add(seconds);
      report_->Op(status, "Insert");
      if (status.ok()) model->Append(row);
      if (traced && db->num_segments() > segments_before) {
        layers_->seal_ms.Add(seconds * 1e3);
      }
    }
  }

  /// Deletes deletes_per_round rows from two sealed segments. `shape`
  /// picks the segments, the same for every seed, so each seed's
  /// compactions rewrite the same segments; `rng` picks the rows.
  void DeleteInTwoSegments(Database* db, incdb::Rng* shape, incdb::Rng* rng,
                           Model* model, WriteFigures* writes) {
    const incdb::Snapshot snapshot = db->GetSnapshot();
    const auto& segments = snapshot.state().segments->segments;
    const uint64_t first = shape->UniformInt(0, segments.size() - 1);
    uint64_t second = shape->UniformInt(0, segments.size() - 2);
    if (second >= first) ++second;
    for (const uint64_t s : {first, second}) {
      const uint64_t begin = segments[s]->begin_row;
      const uint64_t rows = segments[s]->num_rows;
      for (uint64_t n = 0; n < config_.deletes_per_round / 2; ++n) {
        uint64_t row = begin + rng->UniformInt(0, rows - 1);
        while (model->deleted[row] != 0) row = begin + (row - begin + 1) % rows;
        const Clock::time_point start = Clock::now();
        incdb::Status status;
        {
          const Span span("core.Delete");
          status = db->Delete(static_cast<uint32_t>(row));
        }
        writes->deletes.Add(SecondsSince(start));
        report_->Op(status, "Delete");
        if (status.ok()) model->deleted[row] = 1;
      }
    }
  }

  /// Saves into the cycle store; returns the milliseconds Save took.
  double SaveCycleStore(const Database& db) {
    const Listing before = ListStore(cycle_dir_);
    const Clock::time_point start = Clock::now();
    incdb::Status status;
    {
      const Span span("storage.Save");
      status = db.Save(cycle_dir_);
    }
    const double ms = MillisSince(start);
    report_->Op(status, "Save");
    ++layers_->saves;
    for (const auto& [name, stat] : ListStore(cycle_dir_)) {
      const auto it = before.find(name);
      if (it != before.end() && it->second == stat) continue;
      ++layers_->files_written;
      layers_->bytes_written += stat.first;
    }
    return ms;
  }

  static double IndexBytes(const Database& db) {
    const incdb::Snapshot snapshot = db.GetSnapshot();
    double bytes = static_cast<double>(snapshot.IndexSizeInBytes());
    if (snapshot.state().segments != nullptr) {
      for (const auto& segment : snapshot.state().segments->segments) {
        bytes += static_cast<double>(segment->index->SizeInBytes());
      }
    }
    return bytes;
  }

  /// Verified opens (open_ms), one unverified open and the first query on
  /// it. Returns the last verified reopen.
  std::optional<Database> OpenTimed(WriteFigures* writes) {
    std::optional<Database> reopened;
    for (int i = 0; i < config_.opens; ++i) {
      reopened.reset();
      const Clock::time_point start = Clock::now();
      incdb::Result<Database> opened = incdb::Status::OK();
      {
        const Span span("storage.Open.verified");
        opened = Database::Open(cycle_dir_, /*verify_checksums=*/true);
      }
      writes->open_ms.Add(MillisSince(start));
      report_->Op(opened.status(), "Open");
      if (!opened.ok()) return {};
      reopened.emplace(std::move(opened).value());
    }
    incdb::Result<Database> unverified = incdb::Status::OK();
    {
      const Span span("storage.Open.unverified");
      unverified = Database::Open(cycle_dir_, /*verify_checksums=*/false);
    }
    report_->Op(unverified.status(), "Open");
    if (unverified.ok() && !requests_.empty()) {
      const Span span("storage.first_query");
      report_->Op(unverified->Run(requests_.front().request).status(),
                  "query");
    }
    return reopened;
  }

  /// Every acknowledged insert and delete is visible after Open, and the
  /// reopened store answers as the database that saved it (and as the
  /// oracle) on a fixed subset of the requests.
  void CheckReopened(const Database& saved, const Database& reopened,
                     const Model& model, const std::vector<uint64_t>& counts) {
    const incdb::Snapshot snapshot = reopened.GetSnapshot();
    if (snapshot.num_rows() != model.rows()) {
      report_->Mismatch("reopened store has " +
                        std::to_string(snapshot.num_rows()) +
                        " rows, expected " + std::to_string(model.rows()));
      return;
    }
    for (uint64_t r = 0; r < model.rows(); ++r) {
      bool same = snapshot.IsDeleted(static_cast<uint32_t>(r)) ==
                  (model.deleted[r] != 0);
      for (size_t a = 0; a < kAttrs && same; ++a) {
        same = snapshot.table().Get(r, a) == model.cells[r * kAttrs + a];
      }
      if (!same) {
        report_->Mismatch("reopened row " + std::to_string(r) +
                          " differs from the acknowledged writes");
        return;
      }
    }
    // Cycles replay identical work, so only the first cycle's answers are
    // checked against the saved database and the oracle; later cycles must
    // reproduce them exactly.
    if (!first_counts_.empty()) {
      if (counts != first_counts_) {
        report_->Mismatch("a cycle's answers differ from the first cycle's");
      }
      return;
    }
    first_counts_ = counts;
    constexpr size_t kStride = 9;
    for (size_t i = 0; i < requests_.size(); i += kStride) {
      const incdb::Result<incdb::QueryResult> before =
          saved.Run(requests_[i].request);
      if (!before.ok() || before->count != counts[i]) {
        report_->Mismatch("reopened answer to request " + std::to_string(i) +
                          " differs from the saved database's");
      }
    }
    CheckAgainstOracle(reopened, requests_, counts, kStride, report_);
  }

  const Options& options_;
  const CycleConfig config_;
  const fs::path base_dir_;
  const fs::path cycle_dir_;
  Report* report_;
  Layers* layers_;
  Model base_;
  std::vector<TimedRequest> requests_;
  std::vector<uint64_t> first_counts_;
  Samples index_bytes_per_row_;
};

CycleConfig TinyConfig(CycleConfig config) {
  config.segment_rows = 4096;
  config.base_segments = 2;
  config.rounds = 2;
  config.extra_rows = 100;
  config.deletes_per_round = 200;
  config.point_queries = 40;
  config.range_queries = 40;
  config.expr_queries = 20;
  return config;
}

}  // namespace

void RunWriteEpilogue(const Options& options, Report* report,
                      WriteFigures* figures, Layers* layers) {
  CycleConfig config;
  config.base_segments = 2;
  config.point_queries = config.range_queries = config.expr_queries = 0;
  if (options.tiny) config = TinyConfig(config);
  config.point_queries = config.range_queries = config.expr_queries = 0;
  Lifecycle lifecycle(options, config, "epilogue", report, layers);
  if (!lifecycle.SetUp().has_value()) return;
  QueryFigures unused;
  // compact_ms and save_ms are medians over cycles; five cycles keep one
  // slow cycle of the host out of them.
  for (int cycle = 0; cycle < 5; ++cycle) lifecycle.RunCycle(figures, &unused);
}

int RunSegmentLifecycle(const Options& options, Report* report) {
  const CycleConfig config =
      options.tiny ? TinyConfig(CycleConfig{}) : CycleConfig{};
  Layers layers;
  Lifecycle lifecycle(options, config, "lifecycle", report, &layers);
  report->Header("rows", static_cast<double>(lifecycle.BaseRows()));
  report->Header("segment_rows", static_cast<double>(config.segment_rows));
  report->Header("requests", static_cast<double>(config.point_queries +
                                                 config.range_queries +
                                                 config.expr_queries));

  Samples setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::optional<double> seconds = lifecycle.SetUp();
    if (!seconds.has_value()) return 1;
    setup.Add(*seconds);
  }
  WriteFigures writes;
  QueryFigures queries;
  // Three cycles at least: each p99 then rests on 1000+ samples.
  const Clock::time_point start = Clock::now();
  int cycles = 0;
  while (cycles < 3 || SecondsSince(start) < options.seconds) {
    lifecycle.RunCycle(&writes, &queries);
    ++cycles;
  }
  report->Detail("cycles", cycles);
  report->Metric("setup_s", setup.Median(), "s");
  writes.ReportTo(report);
  queries.ReportTo(report);
  report->Metric("index_bytes_per_row",
                 lifecycle.index_bytes_per_row().Median(), "B/row");
  if (options.trace) ReportLayers(layers, report);
  return 0;
}

}  // namespace perfbench
