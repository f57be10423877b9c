#include "core/segments.h"

#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace incdb {

bool IsSegmentIndexKind(IndexKind kind) {
  switch (kind) {
    case IndexKind::kBitmapEquality:
    case IndexKind::kBitmapRange:
    case IndexKind::kBitmapInterval:
    case IndexKind::kBitmapBitSliced:
    case IndexKind::kBitmapMultiComponent:
    case IndexKind::kBitmapHierarchical:
      return true;
    default:
      // Scan has no payload; the VA-files consult the table at query time,
      // so they cannot outlive the transient local copy a segment is built
      // from.
      return false;
  }
}

namespace internal {

std::vector<ZoneEntry> ComputeZones(const Table& table, uint64_t begin,
                                    uint64_t rows) {
  const size_t num_attrs = table.num_attributes();
  std::vector<ZoneEntry> zones(num_attrs);
  std::vector<bool> seen(num_attrs, false);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < num_attrs; ++a) {
      const Value v = table.Get(begin + r, a);
      if (IsMissing(v)) {
        ++zones[a].missing;
        continue;
      }
      if (!seen[a]) {
        zones[a].min_value = v;
        zones[a].max_value = v;
        seen[a] = true;
      } else {
        if (v < zones[a].min_value) zones[a].min_value = v;
        if (v > zones[a].max_value) zones[a].max_value = v;
      }
    }
  }
  return zones;
}

Result<Segment> BuildSealedSegment(const Table& table, uint64_t begin,
                                   uint64_t rows, IndexKind kind,
                                   uint64_t content_id) {
  if (rows == 0) {
    return Status::InvalidArgument("segment must cover at least one row");
  }
  if (begin + rows > table.num_rows()) {
    return Status::InvalidArgument("segment range past end of table");
  }
  if (!IsSegmentIndexKind(kind)) {
    return Status::NotSupported(
        "segment index kind must be a self-contained bitmap kind");
  }
  // Transient local copy in the segment's own row space; discarded after
  // Build because bitmap kinds never read the table again.
  INCDB_ASSIGN_OR_RETURN(Table local, Table::Create(table.schema()));
  const size_t num_attrs = table.num_attributes();
  std::vector<Value> row(num_attrs);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < num_attrs; ++a) {
      row[a] = table.Get(begin + r, a);
    }
    local.AppendRowUnchecked(row);
  }
  INCDB_ASSIGN_OR_RETURN(std::unique_ptr<IncompleteIndex> index,
                         CreateIndex(kind, local));
  Segment seg;
  seg.content_id = content_id;
  seg.begin_row = begin;
  seg.num_rows = rows;
  seg.index_kind = kind;
  seg.index = std::shared_ptr<const IncompleteIndex>(std::move(index));
  seg.zones = ComputeZones(table, begin, rows);
  return seg;
}

Result<std::vector<std::shared_ptr<const Segment>>> BuildSegmentsParallel(
    const Table& table, uint64_t first_unsealed, uint64_t sealed_limit,
    const SegmentOptions& options, uint64_t* next_content_id,
    unsigned parallelism) {
  INCDB_CHECK(options.segment_rows > 0);
  INCDB_CHECK(first_unsealed <= sealed_limit);
  const uint64_t pending = sealed_limit - first_unsealed;
  const uint64_t count = pending / options.segment_rows;
  std::vector<std::shared_ptr<const Segment>> out(count);
  if (count == 0) return out;
  const uint64_t first_id = *next_content_id;
  *next_content_id += count;

  std::atomic<uint64_t> next{0};
  std::vector<Status> errors;
  Mutex errors_mu;
  auto worker = [&]() {
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const uint64_t begin = first_unsealed + i * options.segment_rows;
      Result<Segment> seg =
          BuildSealedSegment(table, begin, options.segment_rows,
                             options.index_kind, first_id + i);
      if (!seg.ok()) {
        const MutexLock lock(&errors_mu);
        errors.push_back(seg.status());
        return;
      }
      out[i] = std::make_shared<const Segment>(std::move(seg).value());
    }
  };

  unsigned workers = parallelism == 0 ? 1u : parallelism;
  if (workers > count) workers = static_cast<unsigned>(count);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (!errors.empty()) return errors.front();
  return out;
}

bool SegmentPrunedByZones(const Segment& seg, const RangeQuery& query) {
  for (const QueryTerm& term : query.terms) {
    if (term.attribute >= seg.zones.size()) return false;
    const ZoneEntry& zone = seg.zones[term.attribute];
    const bool any_present = zone.missing < seg.num_rows;
    const bool overlaps = any_present &&
                          term.interval.lo <= zone.max_value &&
                          term.interval.hi >= zone.min_value;
    const bool satisfiable = query.semantics == MissingSemantics::kMatch
                                 ? (overlaps || zone.missing > 0)
                                 : overlaps;
    if (!satisfiable) return true;
  }
  return false;
}

}  // namespace internal
}  // namespace incdb
