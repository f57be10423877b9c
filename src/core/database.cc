#include "core/database.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/task_runner.h"
#include "common/timer.h"
#include "plan/planner.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "table/csv.h"

namespace incdb {

Database::Database(Table table)
    : table_(std::make_shared<Table>(std::move(table))),
      shared_(std::make_unique<Shared>()),
      registry_(
          std::make_shared<const std::vector<internal::SnapshotIndexEntry>>()),
      persist_cache_(std::make_shared<storage::SegmentPersistCache>()) {
  // Nobody else can see `this` yet, but Publish and the guarded fields
  // require writer_mu, so claim it (uncontended) to keep the thread-safety
  // analysis airtight instead of suppressing it for constructors.
  const MutexLock writer_lock(&shared_->writer_mu);
  missing_counts_.resize(table_->num_attributes());
  for (size_t attr = 0; attr < table_->num_attributes(); ++attr) {
    missing_counts_[attr] = table_->column(attr).MissingCount();
  }
  Publish();
}

Result<Database> Database::Create(Schema schema) {
  INCDB_ASSIGN_OR_RETURN(Table table, Table::Create(std::move(schema)));
  return Database(std::move(table));
}

Result<Database> Database::FromTable(Table table) {
  return Database(std::move(table));
}

Result<Database> Database::FromCsv(const std::string& path) {
  INCDB_ASSIGN_OR_RETURN(Table table, ReadCsv(path));
  return Database(std::move(table));
}

Database::Database(std::shared_ptr<Table> table, OpenTag)
    : table_(std::move(table)),
      shared_(std::make_unique<Shared>()),
      registry_(
          std::make_shared<const std::vector<internal::SnapshotIndexEntry>>()),
      persist_cache_(std::make_shared<storage::SegmentPersistCache>()) {
}

Status Database::Save(const std::string& dir) const {
  const Snapshot snapshot = GetSnapshot();
  return storage::WriteSnapshot(snapshot.state(), dir, persist_cache_.get());
}

Result<Database> Database::Open(const std::string& dir,
                                bool verify_checksums) {
  storage::OpenOptions options;
  options.verify_checksums = verify_checksums;
  INCDB_ASSIGN_OR_RETURN(storage::OpenedStore store,
                         storage::OpenStore(dir, options));
  Database db(store.table, OpenTag{});
  const MutexLock writer_lock(&db.shared_->writer_mu);
  // Pin the main mapping plus every independently mapped segment file for
  // as long as any borrowed view can reach them.
  {
    auto pins = std::make_shared<std::vector<std::shared_ptr<void>>>();
    pins->reserve(1 + store.segment_mappings.size());
    pins->push_back(store.mapping);
    for (auto& segment_mapping : store.segment_mappings) {
      pins->push_back(std::move(segment_mapping));
    }
    db.mapping_pin_ = std::move(pins);
  }
  if (store.segments != nullptr) {
    db.segment_list_ = store.segments;
    for (const auto& segment : store.segments->segments) {
      db.next_content_id_ =
          std::max(db.next_content_id_, segment->content_id + 1);
    }
    // Seed the dirty-segment cache: every segment file just opened is
    // already durable in this directory, so the next Save reuses it.
    const MutexLock cache_lock(&db.persist_cache_->mu);
    db.persist_cache_->dir = dir;
    for (const storage::OpenedSegmentFile& file : store.segment_files) {
      db.persist_cache_->files[file.content_id] =
          storage::CachedSegmentFile{file.file_name, file.file_size,
                                     file.crc32};
    }
  }
  db.deleted_ = store.deleted;
  db.num_deleted_ = store.num_deleted;
  db.missing_counts_ = std::move(store.missing_counts);
  db.registry_ =
      std::make_shared<const std::vector<internal::SnapshotIndexEntry>>(
          std::move(store.indexes));
  db.epoch_ = 0;
  db.Publish();
  return db;
}

void Database::Publish() {
  auto state = std::make_shared<internal::SnapshotState>();
  state->table = table_;
  state->segments = segment_list_;
  state->epoch = epoch_;
  state->num_rows = table_->num_rows();
  state->deleted = deleted_;
  state->num_deleted = num_deleted_;
  state->indexes = registry_;
  state->missing_counts = missing_counts_;
  const MutexLock head_lock(&shared_->head_mu);
  shared_->head = std::move(state);
}

Snapshot Database::GetSnapshot() const {
  const MutexLock head_lock(&shared_->head_mu);
  return Snapshot(shared_->head);
}

Result<QueryResult> Database::Run(const QueryRequest& request) const {
  return plan::RunOnSnapshot(GetSnapshot(), request);
}

BatchResult Database::RunBatch(const std::vector<QueryRequest>& requests,
                               size_t num_threads) const {
  BatchResult batch;
  if (requests.empty()) return batch;
  if (num_threads == 0) num_threads = HardwareWorkers();
  num_threads = std::min(num_threads, requests.size());
  batch.num_threads = num_threads;
  batch.results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    batch.results.emplace_back(Status::Internal("request not executed"));
  }

  // One snapshot for the whole batch: every request sees the same epoch.
  const Snapshot snapshot = GetSnapshot();

  struct WorkerState {
    uint64_t matches = 0;
    QueryStats stats;
  };
  std::vector<WorkerState> workers(num_threads);
  // A failed request fails only its own slot of batch.results.
  auto run = [&](size_t worker, size_t i) {
    Result<QueryResult> result = plan::RunOnSnapshot(snapshot, requests[i]);
    if (result.ok()) {
      workers[worker].matches += result.value().count;
      workers[worker].stats.MergeFrom(result.value().stats);
    }
    batch.results[i] = std::move(result);
    return Status::OK();
  };

  Timer timer;
  INCDB_CHECK_OK(RunTasks(requests.size(), num_threads, run));
  batch.wall_millis = timer.ElapsedMillis();
  for (const WorkerState& state : workers) {
    batch.total_matches += state.matches;
    batch.stats.MergeFrom(state.stats);
  }
  return batch;
}

Status Database::Insert(const std::vector<Value>& row) {
  const MutexLock writer_lock(&shared_->writer_mu);
  INCDB_RETURN_IF_ERROR(table_->AppendRow(row));
  for (size_t attr = 0; attr < row.size(); ++attr) {
    if (row[attr] == kMissingValue) ++missing_counts_[attr];
  }
  if (segment_list_ != nullptr) {
    INCDB_RETURN_IF_ERROR(SealPending(table_->num_rows()));
  }
  ++epoch_;
  Publish();
  return Status::OK();
}

Status Database::SealPending(uint64_t limit) {
  const SegmentOptions& options = segment_list_->options;
  const uint64_t sealed = segment_list_->sealed_rows;
  if (limit < sealed + options.segment_rows) return Status::OK();
  INCDB_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const internal::Segment>> fresh,
      internal::BuildSegmentsParallel(*table_, sealed, limit, options,
                                      &next_content_id_));
  auto list = std::make_shared<internal::SegmentList>();
  list->options = options;
  list->segments = segment_list_->segments;
  for (std::shared_ptr<const internal::Segment>& seg : fresh) {
    list->segments.push_back(std::move(seg));
  }
  list->sealed_rows =
      list->segments.empty() ? 0 : list->segments.back()->end_row();
  segment_list_ = std::move(list);
  return Status::OK();
}

Status Database::EnableSegments(const SegmentOptions& options) {
  if (options.segment_rows == 0) {
    return Status::InvalidArgument("segment_rows must be positive");
  }
  if (!IsSegmentIndexKind(options.index_kind)) {
    return Status::NotSupported(
        "segment index kind must be a self-contained bitmap kind");
  }
  const MutexLock writer_lock(&shared_->writer_mu);
  if (segment_list_ != nullptr) {
    return Status::InvalidArgument("segments already enabled");
  }
  auto list = std::make_shared<internal::SegmentList>();
  list->options = options;
  segment_list_ = std::move(list);
  INCDB_RETURN_IF_ERROR(SealPending(table_->num_rows()));
  ++epoch_;
  Publish();
  return Status::OK();
}

bool Database::segments_enabled() const {
  return GetSnapshot().state().segments != nullptr;
}

CompactionStats Database::GetCompactionStats() const {
  CompactionStats stats;
  stats.compactions = shared_->compactions.load(std::memory_order_relaxed);
  stats.reclaimed_rows =
      shared_->reclaimed_rows.load(std::memory_order_relaxed);
  stats.reclaimed_bytes =
      shared_->reclaimed_bytes.load(std::memory_order_relaxed);
  stats.segments_rebuilt =
      shared_->segments_rebuilt.load(std::memory_order_relaxed);
  stats.segments_reused =
      shared_->segments_reused.load(std::memory_order_relaxed);
  return stats;
}

Status Database::CompactNow() {
  const MutexLock writer_lock(&shared_->writer_mu);
  const uint64_t total = table_->num_rows();
  const uint64_t segment_rows =
      segment_list_ != nullptr ? segment_list_->options.segment_rows : 0;

  // Work detection: deleted rows to drop, or small sealed segments that can
  // merge (an adjacent undersized pair, or a last undersized segment whose
  // rows plus the tail reach a full segment).
  bool merge_work = false;
  if (segment_list_ != nullptr && !segment_list_->segments.empty()) {
    const auto& segs = segment_list_->segments;
    for (size_t i = 0; i + 1 < segs.size() && !merge_work; ++i) {
      merge_work = segs[i]->num_rows < segment_rows &&
                   segs[i + 1]->num_rows < segment_rows;
    }
    if (segs.back()->num_rows < segment_rows &&
        segs.back()->num_rows + (total - segment_list_->sealed_rows) >=
            segment_rows) {
      merge_work = true;
    }
  }
  if (num_deleted_ == 0 && !merge_work) return Status::OK();

  auto is_deleted = [this](uint64_t row)
                        INCDB_REQUIRES(shared_->writer_mu) {
                          return deleted_ != nullptr &&
                                 row < deleted_->size() && deleted_->Get(row);
                        };
  INCDB_ASSIGN_OR_RETURN(Table rebuilt, Table::Create(table_->schema()));
  auto new_table = std::make_shared<Table>(std::move(rebuilt));
  const size_t num_attrs = table_->num_attributes();
  std::vector<Value> row(num_attrs);
  auto copy_row = [&](uint64_t src) {
    for (size_t a = 0; a < num_attrs; ++a) row[a] = table_->Get(src, a);
    new_table->AppendRowUnchecked(row);
  };

  uint64_t reused = 0;
  uint64_t built = 0;
  std::shared_ptr<const internal::SegmentList> new_list;
  if (segment_list_ != nullptr) {
    const auto& segs = segment_list_->segments;
    // A segment is rewritten when it overlaps a deleted row. Undersized
    // segments additionally rewrite when a neighbor is also being rewritten
    // or undersized (so adjacent remnants merge), and the last sealed
    // segment always rewrites if undersized — its rows fold back into the
    // unsealed tail, which is how small tail segments get merged away.
    std::vector<bool> rewrite(segs.size(), false);
    for (size_t i = 0; i < segs.size(); ++i) {
      for (uint64_t r = segs[i]->begin_row;
           r < segs[i]->end_row() && !rewrite[i]; ++r) {
        rewrite[i] = is_deleted(r);
      }
    }
    for (size_t i = 0; i < segs.size(); ++i) {
      if (segs[i]->num_rows >= segment_rows || rewrite[i]) continue;
      const bool last = i + 1 == segs.size();
      const bool prev_merges =
          i > 0 && (rewrite[i - 1] || segs[i - 1]->num_rows < segment_rows);
      const bool next_merges =
          !last &&
          (rewrite[i + 1] || segs[i + 1]->num_rows < segment_rows);
      if (last || prev_merges || next_merges) rewrite[i] = true;
    }

    // Descriptor per surviving segment, in row order: either a reused
    // segment (index carried over, begin_row shifted) or a range of the new
    // table still needing an index build.
    struct Desc {
      std::shared_ptr<const internal::Segment> carried;
      uint64_t begin = 0;
      uint64_t rows = 0;
    };
    std::vector<Desc> descs;
    constexpr uint64_t kNoRun = ~uint64_t{0};
    uint64_t run_begin = kNoRun;
    auto flush_run = [&](bool final_run) {
      if (run_begin == kNoRun) return;
      uint64_t begin = run_begin;
      const uint64_t end = new_table->num_rows();
      while (end - begin >= segment_rows) {
        descs.push_back(Desc{nullptr, begin, segment_rows});
        begin += segment_rows;
      }
      // A mid-store remnant stays sealed (undersized, merged further by a
      // later compaction); a trailing remnant becomes the unsealed tail.
      if (begin < end && !final_run) {
        descs.push_back(Desc{nullptr, begin, end - begin});
      }
      run_begin = kNoRun;
    };
    for (size_t i = 0; i < segs.size(); ++i) {
      const internal::Segment& seg = *segs[i];
      if (!rewrite[i]) {
        flush_run(false);
        const uint64_t new_begin = new_table->num_rows();
        for (uint64_t r = seg.begin_row; r < seg.end_row(); ++r) copy_row(r);
        auto carried = std::make_shared<internal::Segment>(seg);
        carried->begin_row = new_begin;
        descs.push_back(Desc{std::move(carried), new_begin, seg.num_rows});
        ++reused;
      } else {
        if (run_begin == kNoRun) run_begin = new_table->num_rows();
        for (uint64_t r = seg.begin_row; r < seg.end_row(); ++r) {
          if (!is_deleted(r)) copy_row(r);
        }
      }
    }
    if (run_begin == kNoRun) run_begin = new_table->num_rows();
    for (uint64_t r = segment_list_->sealed_rows; r < total; ++r) {
      if (!is_deleted(r)) copy_row(r);
    }
    flush_run(true);

    // Build the missing indexes in parallel, then assemble the list in row
    // order.
    std::vector<size_t> to_build;
    for (size_t i = 0; i < descs.size(); ++i) {
      if (descs[i].carried == nullptr) to_build.push_back(i);
    }
    std::vector<std::shared_ptr<const internal::Segment>> built_segs(
        descs.size());
    std::vector<uint64_t> ids(to_build.size());
    for (size_t j = 0; j < to_build.size(); ++j) ids[j] = next_content_id_++;
    const IndexKind kind = segment_list_->options.index_kind;
    auto build = [&](size_t, size_t j) -> Status {
      const Desc& d = descs[to_build[j]];
      INCDB_ASSIGN_OR_RETURN(internal::Segment seg,
                             internal::BuildSealedSegment(
                                 *new_table, d.begin, d.rows, kind, ids[j]));
      built_segs[to_build[j]] =
          std::make_shared<const internal::Segment>(std::move(seg));
      return Status::OK();
    };
    INCDB_RETURN_IF_ERROR(RunTasks(to_build.size(), HardwareWorkers(), build));
    built = to_build.size();

    auto list = std::make_shared<internal::SegmentList>();
    list->options = segment_list_->options;
    list->segments.reserve(descs.size());
    for (size_t i = 0; i < descs.size(); ++i) {
      list->segments.push_back(descs[i].carried != nullptr
                                   ? std::move(descs[i].carried)
                                   : std::move(built_segs[i]));
    }
    list->sealed_rows =
        list->segments.empty() ? 0 : list->segments.back()->end_row();
    new_list = std::move(list);
  } else {
    for (uint64_t r = 0; r < total; ++r) {
      if (!is_deleted(r)) copy_row(r);
    }
  }

  // Registry indexes cover the old row numbering; rebuild them over the
  // surviving rows, in parallel, so the writer holds writer_mu for about
  // the slowest build rather than the sum of them. An empty store drops
  // them (nothing to cover) — rebuilt by the next BuildIndex.
  std::vector<internal::SnapshotIndexEntry> entries;
  if (new_table->num_rows() > 0) {
    const std::vector<internal::SnapshotIndexEntry>& old = *registry_;
    std::vector<std::unique_ptr<IncompleteIndex>> indexes(old.size());
    auto build = [&](size_t, size_t i) -> Status {
      INCDB_ASSIGN_OR_RETURN(indexes[i], CreateIndex(old[i].kind, *new_table));
      return Status::OK();
    };
    INCDB_RETURN_IF_ERROR(RunTasks(old.size(), HardwareWorkers(), build));
    for (size_t i = 0; i < old.size(); ++i) {
      internal::SnapshotIndexEntry entry;
      entry.kind = old[i].kind;
      entry.index =
          std::shared_ptr<const IncompleteIndex>(std::move(indexes[i]));
      entry.covered_rows = new_table->num_rows();
      entries.push_back(std::move(entry));
    }
  }

  const uint64_t reclaimed = num_deleted_;
  // Commit the rewritten store: swap the base table, reset the deletion
  // mask, refresh the derived stats, publish. Old snapshots keep the old
  // table alive through their shared_ptr.
  table_ = std::move(new_table);
  segment_list_ = std::move(new_list);
  registry_ =
      std::make_shared<const std::vector<internal::SnapshotIndexEntry>>(
          std::move(entries));
  deleted_ = nullptr;
  num_deleted_ = 0;
  missing_counts_.assign(num_attrs, 0);
  for (size_t a = 0; a < num_attrs; ++a) {
    missing_counts_[a] = table_->column(a).MissingCount();
  }
  shared_->compactions.fetch_add(1, std::memory_order_relaxed);
  shared_->reclaimed_rows.fetch_add(reclaimed, std::memory_order_relaxed);
  shared_->reclaimed_bytes.fetch_add(
      reclaimed * num_attrs * sizeof(Value), std::memory_order_relaxed);
  shared_->segments_rebuilt.fetch_add(built, std::memory_order_relaxed);
  shared_->segments_reused.fetch_add(reused, std::memory_order_relaxed);
  ++epoch_;
  Publish();
  return Status::OK();
}

Status Database::Delete(uint32_t row) {
  const MutexLock writer_lock(&shared_->writer_mu);
  const uint64_t watermark = table_->num_rows();
  if (row >= watermark) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  // Copy-on-write: pinned snapshots keep seeing the old mask.
  BitVector mask = deleted_ != nullptr ? *deleted_ : BitVector();
  if (mask.size() < watermark) mask.Resize(watermark);
  if (mask.Get(row)) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   " already deleted");
  }
  mask.Set(row);
  deleted_ = std::make_shared<const BitVector>(std::move(mask));
  ++num_deleted_;
  ++epoch_;
  Publish();
  return Status::OK();
}

bool Database::IsDeleted(uint32_t row) const {
  return GetSnapshot().IsDeleted(row);
}

uint64_t Database::num_live_rows() const {
  return GetSnapshot().num_live_rows();
}

uint64_t Database::num_deleted_rows() const {
  return GetSnapshot().num_deleted_rows();
}

Status Database::BuildIndex(IndexKind kind) {
  const MutexLock writer_lock(&shared_->writer_mu);
  if (kind == IndexKind::kSequentialScan) {
    return Status::InvalidArgument(
        "the sequential scan is always available; no index to build");
  }
  if (table_->num_rows() == 0) {
    return Status::InvalidArgument(
        "cannot build an index on an empty database; Insert rows first");
  }
  INCDB_ASSIGN_OR_RETURN(std::unique_ptr<IncompleteIndex> index,
                         CreateIndex(kind, *table_));
  internal::SnapshotIndexEntry entry;
  entry.kind = kind;
  entry.index = std::shared_ptr<const IncompleteIndex>(std::move(index));
  entry.covered_rows = table_->num_rows();
  // Copy-on-write registry, kept ascending by kind.
  auto registry =
      std::make_shared<std::vector<internal::SnapshotIndexEntry>>(*registry_);
  auto pos = std::find_if(registry->begin(), registry->end(),
                          [kind](const internal::SnapshotIndexEntry& e) {
                            return e.kind >= kind;
                          });
  if (pos != registry->end() && pos->kind == kind) {
    *pos = std::move(entry);
  } else {
    registry->insert(pos, std::move(entry));
  }
  registry_ = std::move(registry);
  ++epoch_;
  Publish();
  return Status::OK();
}

Status Database::DropIndex(IndexKind kind) {
  const MutexLock writer_lock(&shared_->writer_mu);
  auto registry =
      std::make_shared<std::vector<internal::SnapshotIndexEntry>>(*registry_);
  auto pos = std::find_if(registry->begin(), registry->end(),
                          [kind](const internal::SnapshotIndexEntry& e) {
                            return e.kind == kind;
                          });
  if (pos == registry->end()) {
    return Status::NotFound("no " + std::string(IndexKindToString(kind)) +
                            " index registered");
  }
  registry->erase(pos);
  registry_ = std::move(registry);
  ++epoch_;
  Publish();
  return Status::OK();
}

bool Database::HasIndex(IndexKind kind) const {
  return GetSnapshot().HasIndex(kind);
}

std::vector<IndexKind> Database::Indexes() const {
  return GetSnapshot().Indexes();
}

Result<QueryTerm> Database::ResolveTerm(const NamedTerm& term) const {
  // Resolve against the pinned snapshot's table (schemas never change, but
  // compaction may swap the table object concurrently).
  const Snapshot snapshot = GetSnapshot();
  return ResolveNamedTerm(snapshot.table(), term);
}

uint64_t Database::IndexSizeInBytes() const {
  return GetSnapshot().IndexSizeInBytes();
}

BackgroundCompactor::BackgroundCompactor(Database* db, Options options)
    : db_(db), options_(options), thread_([this]() { Loop(); }) {}

BackgroundCompactor::~BackgroundCompactor() { Stop(); }

void BackgroundCompactor::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void BackgroundCompactor::Loop() {
  constexpr uint64_t kSliceMillis = 5;
  for (;;) {
    // Sleep the interval in small slices so Stop() stays responsive.
    uint64_t slept = 0;
    do {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(kSliceMillis));
      slept += kSliceMillis;
    } while (slept < options_.interval_millis);
    if (db_->num_deleted_rows() < options_.min_deleted_rows) continue;
    const Status status = db_->CompactNow();
    if (status.ok()) runs_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace incdb
