#ifndef INCDB_CORE_INDEX_FACTORY_H_
#define INCDB_CORE_INDEX_FACTORY_H_

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "bitmap/bitmap_index.h"
#include "core/incomplete_index.h"
#include "table/table.h"
#include "vafile/va_file.h"

namespace incdb {

/// The index families incdb serves. The values are the stored catalog's
/// kind bytes, so they are explicit and never reused: 7 and 8 were the
/// MOSAIC and bitstring-augmented R-tree baselines, which are no longer
/// served (src/baselines builds them for benches and tests).
enum class IndexKind {
  /// No index: full sequential scan (baseline and oracle).
  kSequentialScan = 0,
  /// WAH-compressed equality-encoded bitmap index (paper §4.2).
  kBitmapEquality = 1,
  /// WAH-compressed range-encoded bitmap index (paper §4.3).
  kBitmapRange = 2,
  /// WAH-compressed interval-encoded bitmap index (related work [5],
  /// extended with the missing bitvector; ~half BEE's storage, <= 2
  /// bitmaps per query dimension).
  kBitmapInterval = 3,
  /// WAH-compressed bit-sliced (binary-encoded) bitmap index (related work
  /// [10], extended with the all-zeros missing code; ~lg C bitmaps).
  kBitmapBitSliced = 4,
  /// Vector-approximation file, uniform bins (paper §4.5).
  kVaFile = 5,
  /// VA+-style equi-depth VA-file (paper future work).
  kVaPlusFile = 6,
  /// WAH bitmap over the Chan-Ioannidis mixed-radix slicer: ~2*sqrt(C)
  /// bitmaps per attribute instead of C, per-digit probe trees
  /// (docs/ENCODINGS.md).
  kBitmapMultiComponent = 9,
  /// WAH bitmap over fanout-2 bin levels: ~2C bitmaps, but a wide range
  /// touches <= 2 bins per level — O(log C) probes (docs/ENCODINGS.md).
  kBitmapHierarchical = 10,
};

/// One row of the kind table: everything incdb knows about a served kind.
/// A bitmap kind is a BitmapIndex built with `bitmap`, a VA kind a VaFile
/// with quantization `va`; the scan has neither. The factory, the store's
/// reader and writer, the segment layer, the cost model and the advisor all
/// read this row instead of spelling the mapping out again.
struct IndexKindInfo {
  IndexKind kind;
  /// Display name (IndexKindToString).
  std::string_view name;
  /// CLI short alias; IndexKindFromString also takes the lowercased name.
  std::string_view alias;
  std::optional<BitmapIndex::Options> bitmap;
  std::optional<VaQuantization> va;
};

/// Every served kind, ascending by kind byte.
std::span<const IndexKindInfo> IndexKinds();

/// The row of `kind`, or null for a value no served kind carries (a retired
/// or corrupt catalog byte).
const IndexKindInfo* FindIndexKind(IndexKind kind);

std::string_view IndexKindToString(IndexKind kind);

/// Case-insensitive inverse of IndexKindToString, also accepting the CLI
/// short aliases (scan, bee, bre, bie, bsl, va, va+, mc, hier). Unknown
/// names fail with the valid list in the error.
Result<IndexKind> IndexKindFromString(std::string_view name);

/// Builds an index of the requested kind over `table`. The table must
/// outlive the returned index (the sequential scan and VA-file read it at
/// query time; the others only need it during Build).
Result<std::unique_ptr<IncompleteIndex>> CreateIndex(IndexKind kind,
                                                     const Table& table);

}  // namespace incdb

#endif  // INCDB_CORE_INDEX_FACTORY_H_
