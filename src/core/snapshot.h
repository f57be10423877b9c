#ifndef INCDB_CORE_SNAPSHOT_H_
#define INCDB_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "bitvector/bitvector.h"
#include "core/incomplete_index.h"
#include "core/index_factory.h"
#include "core/query_api.h"
#include "core/segments.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

namespace internal {

/// One registered index inside a snapshot. Indexes are immutable once
/// published: they cover exactly rows [0, covered_rows) of the table (their
/// coverage at BuildIndex time); rows appended later are served by the
/// snapshot executor's delta scan until the next BuildIndex re-covers them.
struct SnapshotIndexEntry {
  IndexKind kind = IndexKind::kSequentialScan;
  std::shared_ptr<const IncompleteIndex> index;
  uint64_t covered_rows = 0;
};

/// The immutable state one epoch publishes. Readers pin it through a
/// shared_ptr; writers never mutate a published state — Insert / Delete /
/// BuildIndex / DropIndex build a fresh one (copy-on-write for the index
/// registry and the deletion mask, append-only watermarking for the table)
/// and swap the Database head pointer.
///
/// Immutability is enforced by construction and by the compile-time gate
/// (docs/STATIC_ANALYSIS.md): a state is only reachable through
/// shared_ptr<const SnapshotState>, so post-publish mutation does not
/// type-check; the one mutable handle exists inside Database::Publish,
/// which clang's thread-safety analysis only admits under writer_mu, and
/// the head-pointer swap it ends with only under head_mu (both
/// INCDB_GUARDED_BY-annotated in core/database.h). The writer-side working
/// copies these states are built from carry the same GUARDED_BY
/// annotations, so an unlocked write anywhere on the publish path is a
/// compile error on the clang CI cells.
struct SnapshotState {
  /// The shared append-only base table. Cells of rows < num_rows are
  /// immutable and safe to read concurrently with the single writer. Held
  /// by shared_ptr because compaction (docs/SEGMENTS.md) replaces the base
  /// table wholesale: snapshots pinned before a compaction keep the old
  /// table alive for as long as they live.
  std::shared_ptr<const Table> table;
  /// Monotone publication counter.
  uint64_t epoch = 0;
  /// Append watermark: this snapshot sees exactly rows [0, num_rows).
  uint64_t num_rows = 0;
  /// Set bits among [0, deleted->size()) are logically deleted. Null when
  /// nothing was ever deleted; may be shorter than num_rows (rows appended
  /// after the last Delete are live).
  std::shared_ptr<const BitVector> deleted;
  uint64_t num_deleted = 0;
  /// Registered indexes, ascending by kind. Shared (copy-on-write) across
  /// epochs that did not change the registry.
  std::shared_ptr<const std::vector<SnapshotIndexEntry>> indexes;
  /// Per-attribute missing-cell counts among rows [0, num_rows) — feeds the
  /// router's selectivity model without rescanning columns.
  std::vector<uint64_t> missing_counts;
  /// Sharded segment layer (null when segments are disabled): immutable
  /// sealed segments covering rows [0, segments->sealed_rows), each with a
  /// local-row-space index and a zone map. Shared copy-on-write across
  /// epochs like the index registry.
  std::shared_ptr<const SegmentList> segments;
};

}  // namespace internal

/// An immutable, consistent view of a Database: a row watermark, an index
/// registry, and a deletion-mask version, pinned via shared_ptr. Cheap to
/// copy; safe to query from any thread while writers keep publishing new
/// epochs. Obtain one with Database::GetSnapshot() (every Database::Run
/// pins one internally per request).
class Snapshot {
 public:
  /// An invalid snapshot; RunOnSnapshot rejects it.
  Snapshot() = default;
  explicit Snapshot(std::shared_ptr<const internal::SnapshotState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  uint64_t epoch() const { return state_->epoch; }
  /// Rows visible to this snapshot (append watermark).
  uint64_t num_rows() const { return state_->num_rows; }
  uint64_t num_deleted_rows() const { return state_->num_deleted; }
  uint64_t num_live_rows() const {
    return state_->num_rows - state_->num_deleted;
  }
  /// True if `row` is logically deleted in this snapshot.
  bool IsDeleted(uint32_t row) const {
    return state_->deleted != nullptr && row < state_->deleted->size() &&
           state_->deleted->Get(row);
  }
  /// The shared base table. Only rows [0, num_rows()) may be accessed.
  const Table& table() const { return *state_->table; }
  /// Registered index kinds, ascending.
  std::vector<IndexKind> Indexes() const;
  bool HasIndex(IndexKind kind) const;
  /// Total bytes across registered indexes.
  uint64_t IndexSizeInBytes() const;
  /// Fraction of missing cells for `attr` among visible rows (paper's P_m).
  double MissingRate(size_t attr) const;
  /// Sealed segments visible to this snapshot (0 / 0 when disabled).
  size_t num_segments() const {
    return state_->segments == nullptr ? 0 : state_->segments->segments.size();
  }
  uint64_t sealed_rows() const {
    return state_->segments == nullptr ? 0 : state_->segments->sealed_rows;
  }

  /// The underlying state (executor/Database plumbing; not part of the
  /// stable API).
  const internal::SnapshotState& state() const { return *state_; }

 private:
  std::shared_ptr<const internal::SnapshotState> state_;
};

/// Resolves a named term against a table's schema into an attribute index
/// plus a validated interval.
///
/// Cost-based routing and execution against a snapshot live in the plan
/// layer: plan/planner.h (PlanRequest, RunOnSnapshot).
Result<QueryTerm> ResolveNamedTerm(const Table& table, const NamedTerm& term);

}  // namespace incdb

#endif  // INCDB_CORE_SNAPSHOT_H_
