#ifndef INCDB_STORAGE_WRITER_H_
#define INCDB_STORAGE_WRITER_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/snapshot.h"

namespace incdb {
namespace storage {

/// What the writer remembers about a segment file it has written (or an
/// open has loaded): enough to reuse the file on the next save and to fill
/// the catalog's segment table without re-reading it.
struct CachedSegmentFile {
  std::string file_name;
  uint64_t file_size = 0;
  uint32_t crc32 = 0;
};

/// Dirty-segment bookkeeping across saves into one directory. Sealed
/// segment files are content-addressed and immutable, so a segment whose
/// content id is cached — and whose file is still present with the
/// recorded size — is skipped entirely by the next WriteSnapshot; only
/// new or rewritten (compacted) segments cost I/O. The cache is advisory:
/// losing it (or switching directories, which resets it) degrades a save
/// to writing every segment file, never to corruption, because reuse is
/// re-validated against the filesystem each time.
struct SegmentPersistCache {
  Mutex mu;
  /// Directory the entries are valid for; a save into a different
  /// directory clears and re-keys the cache.
  std::string dir INCDB_GUARDED_BY(mu);
  std::unordered_map<uint64_t, CachedSegmentFile> files INCDB_GUARDED_BY(mu);
};

/// Serializes a pinned snapshot into the store directory `dir` (created if
/// absent). Persists the table's visible rows, the deletion mask,
/// per-attribute missing counts, and every registered index: the bitmap
/// family and the VA-file family in zero-copy wire form (their bulk arrays
/// land in the data segment and are served back by mmap). Layout in
/// format.h; invariants in docs/STORAGE.md.
///
/// Saving over an existing store is crash-safe and atomic: payload files
/// are written under a fresh generation (never truncating what an existing
/// MANIFEST — or an open snapshot's mmap — points at), fsync'd, and then
/// committed by atomically renaming a new MANIFEST into place; superseded
/// generations are garbage-collected afterwards. A crash at any point
/// leaves either the old complete store or the new one. In particular,
/// saving a database back into the directory it was opened from is safe:
/// borrowed views keep reading the old generation's mapping throughout.
///
/// The snapshot is immutable, so this runs safely while concurrent readers
/// serve queries and the single writer keeps appending to newer epochs.
///
/// A segmented snapshot (state.segments != null) is written in format v2:
/// each sealed segment goes to its own immutable seg-<id>.dat file and the
/// main data segment holds only the unsealed tail's columns. With `cache`
/// non-null, segment files recorded there are reused instead of rewritten
/// (and the cache is updated to exactly the surviving set), bounding save
/// cost by the dirty segments; pass null for a cold full save.
Status WriteSnapshot(const internal::SnapshotState& state,
                     const std::string& dir,
                     SegmentPersistCache* cache = nullptr);

}  // namespace storage
}  // namespace incdb

#endif  // INCDB_STORAGE_WRITER_H_
