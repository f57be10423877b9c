#ifndef INCDB_CORE_SEGMENTS_H_
#define INCDB_CORE_SEGMENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/incomplete_index.h"
#include "core/index_factory.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// Configuration for the sharded segment layer (docs/SEGMENTS.md). Off by
/// default: a database without segments behaves exactly as before (one
/// monolithic snapshot, registry indexes, delta scan). With segments
/// enabled, every `segment_rows` appended rows are sealed into an immutable
/// segment carrying its own index over a local row space plus a zone map,
/// and the planner serves range/expression queries from the segment list.
struct SegmentOptions {
  /// Rows per sealed segment. Appended rows past the last seal boundary
  /// form the unsealed tail and are served by the delta scan.
  uint64_t segment_rows = 64 * 1024;
  /// Index kind built per segment at seal time. Must be one of the
  /// self-contained bitmap kinds (kBitmapEquality/Range/Interval/BitSliced,
  /// or the composite kBitmapMultiComponent/Hierarchical): those never
  /// consult the table after Build, so a segment's index can be built from
  /// a transient row copy and outlive it.
  IndexKind index_kind = IndexKind::kBitmapEquality;
};

/// True for index kinds a segment may carry (self-contained after Build).
bool IsSegmentIndexKind(IndexKind kind);

namespace internal {

/// Per-attribute pruning metadata for one segment. min/max are only
/// meaningful when at least one cell is present (missing < segment rows).
struct ZoneEntry {
  Value min_value = 0;
  Value max_value = 0;
  /// Missing cells for this attribute within the segment.
  uint64_t missing = 0;
};

/// One immutable sealed segment. The segment's index is built over the
/// *local* row space [0, num_rows): local row r corresponds to global row
/// begin_row + r of the base table. Local row spaces are what make
/// compaction cheap — dropping rows elsewhere renumbers global ids, but an
/// untouched segment only needs its begin_row updated, never an index
/// rebuild.
struct Segment {
  /// Stable content identity: assigned once at seal (or re-seal during
  /// compaction) time, never reused within a database lineage. Names the
  /// on-disk per-segment file (storage/format.h) so saves can skip segments
  /// already persisted.
  uint64_t content_id = 0;
  /// Global row offset of local row 0. Updated (via segment copy) when
  /// compaction shifts the segment; everything else is immutable.
  uint64_t begin_row = 0;
  uint64_t num_rows = 0;
  IndexKind index_kind = IndexKind::kBitmapEquality;
  /// Index over local rows [0, num_rows). Shared with older snapshots.
  std::shared_ptr<const IncompleteIndex> index;
  /// One entry per attribute.
  std::vector<ZoneEntry> zones;

  uint64_t end_row() const { return begin_row + num_rows; }
};

/// The segment portion of a snapshot. Segments are contiguous from row 0:
/// segments[0].begin_row == 0 and each begin_row equals the previous
/// end_row(); sealed_rows is the end of the last segment. Rows in
/// [sealed_rows, num_rows) are the unsealed tail.
struct SegmentList {
  SegmentOptions options;
  std::vector<std::shared_ptr<const Segment>> segments;
  uint64_t sealed_rows = 0;
};

/// Builds one sealed segment over global rows [begin, begin + rows) of
/// `table`: computes the zone map, copies the rows into a transient local
/// table, builds the per-segment index in the local row space, and discards
/// the copy. Safe to call from multiple threads over disjoint ranges.
Result<Segment> BuildSealedSegment(const Table& table, uint64_t begin,
                                   uint64_t rows, IndexKind kind,
                                   uint64_t content_id);

/// Seals every full segment in [first_unsealed, sealed_limit) in parallel
/// (one worker per hardware thread). Content ids are assigned
/// sequentially from *next_content_id, which is advanced past the ids used.
/// Returns the new segments in row order.
Result<std::vector<std::shared_ptr<const Segment>>> BuildSegmentsParallel(
    const Table& table, uint64_t first_unsealed, uint64_t sealed_limit,
    const SegmentOptions& options, uint64_t* next_content_id);

/// True when the zone map proves no row of `seg` can satisfy `query` —
/// skipping the probe is then sound because the segment contributes only
/// zero bits. Under kMatch semantics a term is satisfiable within the
/// segment if its interval overlaps [min,max] or any cell is missing; under
/// kNoMatch, only if the interval overlaps (missing never certainly
/// matches). One unsatisfiable term prunes the conjunction.
bool SegmentPrunedByZones(const Segment& seg, const RangeQuery& query);

/// Recomputes the zone map of rows [begin, begin+rows) (save-path reuse and
/// tests; BuildSealedSegment calls it internally).
std::vector<ZoneEntry> ComputeZones(const Table& table, uint64_t begin,
                                    uint64_t rows);

}  // namespace internal
}  // namespace incdb

#endif  // INCDB_CORE_SEGMENTS_H_
