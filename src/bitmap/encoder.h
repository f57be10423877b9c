#ifndef INCDB_BITMAP_ENCODER_H_
#define INCDB_BITMAP_ENCODER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compression/wah_bitvector.h"
#include "core/incomplete_index.h"
#include "query/query.h"

namespace incdb {

/// Bitmap record encoding (paper §4.2 / §4.3, plus the interval encoding
/// from the paper's related work [5]) — the *encoding* axis of the bitmap
/// layer's binning x encoding architecture (docs/ENCODINGS.md). An encoder
/// turns one slicer axis's slot rows into WAH bitvectors (EncodeAxis) and
/// lowers a slot interval over those bitvectors to compressed logical
/// operations (EvaluateSlotInterval). The engine is written once against
/// the slicer's slot domain; every index kind — the paper's four direct
/// ones and the multi-component / hierarchical composites — rides it.
enum class BitmapEncoding {
  /// BEE: B_{i,j}[x] = 1 iff record x has value j for attribute i.
  kEquality,
  /// BRE: B_{i,j}[x] = 1 iff record x has value <= j; the all-ones top
  /// bitmap B_{i,C} is dropped. Missing is treated as value 0 (smaller than
  /// the whole domain), so missing rows are 1 in every kept bitmap.
  kRange,
  /// BIE (Chan & Ioannidis' interval encoding, the paper's reference [5],
  /// extended here with the same B_{i,0} missing bitvector as BEE):
  /// I_{i,j}[x] = 1 iff value(x) in [j, j+m-1] with m = ceil(C/2); only
  /// n = C-m+1 bitmaps are stored (about half of BEE) and any interval is
  /// answered with at most two of them. Missing rows are 0 in every I_j.
  kInterval,
  /// BSL (bit-sliced / binary encoding, after O'Neil & Quass — the paper's
  /// reference [10] — extended to missing data): record x's value is
  /// binary-encoded into b = ceil(lg(C+1)) slice bitmaps S_0..S_{b-1};
  /// the all-zeros code is reserved for missing (mirroring the VA-file's
  /// trick). The smallest bitmap index (log C bitmaps) at the cost of
  /// O(log C) logical operations per query dimension, evaluated with the
  /// classic bit-sliced less-than-or-equal circuit.
  kBitSliced,
};

/// How missing cells are represented in an equality-encoded index.
enum class MissingStrategy {
  /// The paper's design: a dedicated bitvector B_{i,0} marks missing rows.
  kExtraBitmap,
  /// §4.2 rejected alternative (kept for the ablation bench): missing rows
  /// are 1 in *every* value bitmap. Only answers missing-is-match queries;
  /// ambiguous when C_i == 1; ruins run compression. Equality only.
  kAllOnes,
  /// §4.2 rejected alternative: missing rows are 0 in every value bitmap.
  /// Only answers missing-not-match queries and disables the complement
  /// optimization for wide ranges. Equality only.
  kAllZeros,
};

std::string_view BitmapEncodingToString(BitmapEncoding encoding);

/// Interval-encoding geometry: bitmap I_j covers values [j, j+m-1] with
/// m = ceil(C/2); n = C-m+1 bitmaps are stored.
uint32_t IntervalEncodingM(uint32_t cardinality);
uint32_t IntervalEncodingN(uint32_t cardinality);

/// Row positions grouped by slot — the build's counting-sort layout:
/// slot s holds rows[begin[s] .. begin[s+1]), strictly ascending. One
/// sequential pass per slot then writes its bitvector (FromPositions), so
/// build cost is proportional to the rows and output words, never to
/// rows x slots.
struct SlotRows {
  std::vector<uint32_t> begin;  // num_slots + 1 offsets into rows
  std::vector<uint32_t> rows;

  size_t num_slots() const { return begin.size() - 1; }
  std::span<const uint32_t> operator[](size_t slot) const {
    return {rows.data() + begin[slot], rows.data() + begin[slot + 1]};
  }
};

/// One bitvector under construction as uncompressed WAH group words: the
/// group-word ladder behind the range, interval and bit-sliced builds and
/// the multi-component unions. Setting or clearing a slot's rows costs one
/// word update per row; Encode writes the canonical WAH form in one pass
/// over ceil(num_rows / 31) words.
class GroupWords {
 public:
  explicit GroupWords(uint64_t num_rows);

  void Set(std::span<const uint32_t> rows);
  void Clear(std::span<const uint32_t> rows);
  void Reset();
  WahBitVector Encode() const;

 private:
  std::vector<uint32_t> words_;
  uint64_t num_rows_;
};

/// Adapts the fused WAH kernels' per-operation accounting (WahOpStats) into
/// the query counters: dense SIMD windows and decoded group words fold into
/// QueryStats at scope exit. get() is null when no stats were requested, so
/// the kernels skip the bookkeeping entirely.
class WahStatsScope {
 public:
  explicit WahStatsScope(QueryStats* stats) : stats_(stats) {}
  ~WahStatsScope() {
    if (stats_ != nullptr) {
      stats_->simd_path += op_stats_.dense_windows;
      stats_->words_decoded += op_stats_.words_decoded;
    }
  }
  WahStatsScope(const WahStatsScope&) = delete;
  WahStatsScope& operator=(const WahStatsScope&) = delete;

  WahOpStats* get() { return stats_ != nullptr ? &op_stats_ : nullptr; }

 private:
  QueryStats* stats_;
  WahOpStats op_stats_;
};

/// Encodes one axis from its slot rows (slots [0, num_slots) of `slots`;
/// a caller's table may carry more, e.g. the missing bucket) in the
/// encoding's canonical layout. `everywhere` holds rows set in every
/// bitmap the axis stores, ascending: the missing rows under range
/// encoding (missing counts as value 0, below the domain) and under the
/// kAllOnes ablation; empty otherwise. Equality writes each slot straight
/// from its rows (merged with `everywhere`); range keeps the running
/// "value <= j" ladder as group words, ORs in slot j's rows and encodes
/// once per step; interval slides an m-slot window over the same ladder;
/// bit-sliced unions the slots whose code has bit k set.
std::vector<WahBitVector> EncodeAxis(BitmapEncoding encoding,
                                     const SlotRows& slots, uint32_t num_slots,
                                     std::span<const uint32_t> everywhere,
                                     uint64_t num_rows);

/// Bitvectors the encoding stores for a slot domain of `num_slots`:
/// equality C, range C-1, interval n = C - ceil(C/2) + 1, bit-sliced
/// ceil(lg(C+1)). The shape contract FromParts and the storage reader
/// validate against.
uint64_t NumAxisBitmaps(BitmapEncoding encoding, uint32_t num_slots);

/// A borrowed view of one encoded axis at query time: the slot-domain
/// bitvectors plus the attribute's missing bitvector (B_0, null when the
/// attribute is complete or a non-extra-bitmap strategy is in use).
struct AxisRef {
  uint32_t num_slots = 0;
  std::span<const WahBitVector> bitmaps;
  const WahBitVector* missing = nullptr;
  uint64_t num_rows = 0;
};

/// The evaluation half of the encoding engine: lowers the slot interval
/// `interval` (1-based, lo/hi in [1, num_slots], validated by the caller)
/// over one encoded axis to fused WAH operations — paper Fig. 2 for
/// equality, Fig. 3 for range, the two-bitmap interval rules, and the
/// O'Neil-Quass bit-sliced circuit. `strategy` and `semantics` control the
/// missing-bitvector composition exactly as before the refactor; the
/// caller enforces the strategy/semantics compatibility rules (§4.2).
WahBitVector EvaluateSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                                  Interval interval, MissingStrategy strategy,
                                  MissingSemantics semantics,
                                  QueryStats* stats);

/// Bitvectors EvaluateSlotInterval reads (its QueryStats::
/// bitvectors_accessed) for the same arguments, from the geometry alone:
/// the evaluator's case analysis without touching a bitmap.
/// `missing_bitmap` says whether the axis carries B_0 (AxisRef::missing).
/// The cost model prices bitmap probes with it.
uint64_t SlotIntervalReads(BitmapEncoding encoding, uint32_t num_slots,
                           Interval interval, MissingStrategy strategy,
                           MissingSemantics semantics, bool missing_bitmap);

}  // namespace incdb

#endif  // INCDB_BITMAP_ENCODER_H_
