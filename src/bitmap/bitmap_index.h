#ifndef INCDB_BITMAP_BITMAP_INDEX_H_
#define INCDB_BITMAP_BITMAP_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitmap/encoder.h"
#include "bitmap/slicer.h"
#include "compression/wah_bitvector.h"
#include "core/incomplete_index.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// WAH-compressed bitmap index over an incomplete table, supporting both
/// query semantics: one class over the binning x encoding engine
/// (bitmap/slicer.h x bitmap/encoder.h, docs/ENCODINGS.md). A slicer maps
/// each attribute's values onto one or more axes of slots; each axis is
/// encoded into WAH bitvectors; a search-key term lowers to compressed
/// logical operations over them. All logical work happens on the
/// compressed form.
///
///  - kDirect: one slot per value, any of the four encodings. The paper's
///    interval-evaluation rules exactly: Fig. 2 for equality encoding,
///    Fig. 3 for range encoding (BEE, BRE, BIE, BSL).
///  - kMultiComponent (Chan & Ioannidis): mixed-radix digits, one
///    equality-encoded axis per component. ~2*sqrt(C) bitmaps instead of
///    C; a range decomposes into per-digit pieces ANDed across axes.
///  - kHierarchical: fanout-2 bin levels, one equality-encoded axis per
///    level. ~2C bitmaps, but a wide range is covered by <= 2 aligned bins
///    per level — O(log C) probes where equality encoding pays O(C).
///
/// The composite schemes use the paper's B_{i,0} trick once per attribute
/// (not per axis): missing rows are absent from every axis bitmap, and the
/// per-axis equality evaluator composes B_0 into its complement path so
/// wide ranges stay cheap without resurrecting missing rows.
class BitmapIndex : public IncompleteIndex {
 public:
  struct Options {
    BitmapEncoding encoding = BitmapEncoding::kEquality;
    MissingStrategy missing_strategy = MissingStrategy::kExtraBitmap;
    /// Non-direct schemes take equality encoding and kExtraBitmap only.
    SlotScheme scheme = SlotScheme::kDirect;
  };

  /// All bitvectors for one attribute (public so the storage engine can
  /// serialize and reassemble an index without rebuilding it).
  struct AttributeBitmaps {
    uint32_t cardinality = 0;
    bool has_missing = false;
    /// B_{i,0} (kExtraBitmap only; empty optional otherwise).
    std::optional<WahBitVector> missing;
    /// axes[a] = the encoded bitvectors of slicer axis a. The direct scheme
    /// has one axis — equality: B_{i,1}..B_{i,C}; range: B_{i,1}..B_{i,C-1};
    /// interval and bit-sliced per EncodeAxis. Composite axes are
    /// equality-encoded: axes[a][s] = rows whose value maps to slot s.
    std::vector<std::vector<WahBitVector>> axes;
  };

  /// Builds the index. Fails on an empty table or on an unsupported
  /// combination (kAllOnes/kAllZeros with range encoding; a non-direct
  /// scheme with any encoding but equality or any strategy but
  /// kExtraBitmap).
  static Result<BitmapIndex> Build(const Table& table, Options options);

  /// Reassembles an index from parts the storage engine deserialized (the
  /// bitvectors are typically mmap-borrowed WAH views). Validates shapes —
  /// every bitvector must span `num_rows` bits and each axis must hold the
  /// bitmap count the slicer geometry and encoding imply — not bit
  /// contents.
  static Result<BitmapIndex> FromParts(Options options, uint64_t num_rows,
                                       std::vector<AttributeBitmaps> attributes);

  std::string Name() const override;
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

  /// COUNT(*) computed on the compressed form (fills counted in O(1) per
  /// run; no verbatim bitvector is materialized).
  Result<uint64_t> ExecuteCount(const RangeQuery& query,
                                QueryStats* stats = nullptr) const override;

  /// GROUP BY `group_attr` COUNT(*) over the rows matching `query` — the
  /// classic bitmap-index aggregation: the query's compressed result is
  /// ANDed with each group's (encoding-derived) equality bitvector and
  /// counted, entirely on compressed bitvectors. Returns cardinality+1
  /// counts; index 0 is the missing-group bucket, index v the count for
  /// value v. `query` must be a valid query; to group the whole table,
  /// pass a full-domain term under match semantics.
  Result<std::vector<uint64_t>> ExecuteGroupCount(
      const RangeQuery& query, size_t group_attr,
      QueryStats* stats = nullptr) const;

  /// Aggregate of one attribute over the rows matching `query`. Missing
  /// cells of `agg_attr` are excluded from sum/min/max/mean (SQL NULL
  /// semantics) and reported in missing_count. Computed from per-value
  /// compressed counts for any encoding; a bit-sliced index computes the
  /// sum directly from its slices (sum = Σ_k 2^k·count(acc ∧ S_k), the
  /// classic bit-sliced aggregation), which the tests cross-check.
  struct Aggregate {
    uint64_t count = 0;          ///< matching rows with agg_attr present
    uint64_t missing_count = 0;  ///< matching rows with agg_attr missing
    uint64_t sum = 0;
    Value min = 0;               ///< 0 when count == 0
    Value max = 0;
    double mean = 0.0;           ///< 0 when count == 0
  };
  Result<Aggregate> ExecuteAggregate(const RangeQuery& query, size_t agg_attr,
                                     QueryStats* stats = nullptr) const;

  /// Evaluates one interval (one search-key term) to a compressed result —
  /// the paper's Fig. 2 / Fig. 3 logic for the direct scheme, the probe
  /// tree for the composite ones. Exposed for tests and analysis (the
  /// composite schemes report stats->probe_components / probe_levels).
  Result<WahBitVector> EvaluateInterval(size_t attr, Interval interval,
                                        MissingSemantics semantics,
                                        QueryStats* stats = nullptr) const;

  /// Bitvectors EvaluateInterval reads for one term (its QueryStats::
  /// bitvectors_accessed) on an index built with `options`, over an
  /// attribute of `cardinality` values that has missing cells or not —
  /// computed from the geometry alone, beside the evaluators it mirrors.
  /// `interval` must be valid for `cardinality`. The cost model charges
  /// bitmap probes by it.
  static uint64_t TermReads(const Options& options, uint32_t cardinality,
                            Interval interval, MissingSemantics semantics,
                            bool has_missing);

  /// Bytes the index would occupy uncompressed (verbatim bitmaps).
  uint64_t VerbatimSizeInBytes() const;

  /// SizeInBytes() / VerbatimSizeInBytes() — the paper's compression ratio.
  double CompressionRatio() const;

  /// Per-attribute compressed size / compression ratio (for Fig. 4 and the
  /// §5.2 real-data analysis).
  uint64_t AttributeSizeInBytes(size_t attr) const;
  double AttributeCompressionRatio(size_t attr) const;

  /// Number of bitvectors stored for attribute `attr` (all axes, plus B_0
  /// if present): C_i, C_i ± 1 for the direct equality and range kinds.
  size_t NumBitmaps(size_t attr) const;

  BitmapEncoding encoding() const { return options_.encoding; }
  MissingStrategy missing_strategy() const {
    return options_.missing_strategy;
  }
  SlotScheme scheme() const { return options_.scheme; }
  uint64_t num_rows() const { return num_rows_; }

  /// Storage-engine accessor: all per-attribute bitvector groups.
  const std::vector<AttributeBitmaps>& attributes() const {
    return attributes_;
  }

  /// The missing bitvector B_{i,0}, or nullptr when the attribute has no
  /// missing data (or a non-extra-bitmap strategy is in use).
  const WahBitVector* missing_bitmap(size_t attr) const {
    return attributes_[attr].missing.has_value() ? &*attributes_[attr].missing
                                                 : nullptr;
  }

  /// Value bitvector B_{i,j} of the direct scheme (1-based j; equality:
  /// j in [1, C], range: j in [1, C-1]).
  const WahBitVector& value_bitmap(size_t attr, size_t j) const {
    return attributes_[attr].axes[0][j - 1];
  }

 private:
  BitmapIndex(Options options, uint64_t num_rows,
              std::vector<AttributeBitmaps> attributes,
              std::vector<Slicer> slicers)
      : options_(options),
        num_rows_(num_rows),
        attributes_(std::move(attributes)),
        slicers_(std::move(slicers)) {}

  // One axis of one attribute viewed through the encoder's query interface
  // (the attribute's B_0 rides along on every axis).
  AxisRef AxisOf(size_t attr, size_t axis) const;

  // kMultiComponent: rows whose value lies in `interval`, by digit-range
  // recursion over the mixed-radix axes (DecomposeMixedRadix).
  WahBitVector EvalMixedRadix(size_t attr, Interval interval,
                              QueryStats* stats) const;

  // kHierarchical: segment-tree cover, <= 2 aligned bins per level OR-ed
  // in one fused pass.
  WahBitVector EvalHierarchical(size_t attr, Interval interval,
                                MissingSemantics semantics,
                                QueryStats* stats) const;

  // Rows of `acc` whose `attr` value is exactly `v`, counted on the
  // compressed form: the stored bitmap for direct equality, a fused
  // slice count for bit-sliced, the interval evaluator otherwise.
  Result<uint64_t> CountValue(const WahBitVector& acc, size_t attr, uint32_t v,
                              QueryStats* stats, WahOpStats* op_stats) const;

  // Shared query path: evaluates every search-key term to a compressed
  // bitvector. ExecuteCompressed fuses them with a k-way AndMany (Execute
  // decompresses that); ExecuteCount feeds them to the fused AndManyCount
  // kernel and never materializes the conjunction at all.
  Result<std::vector<WahBitVector>> EvaluateTerms(const RangeQuery& query,
                                                  QueryStats* stats) const;
  Result<WahBitVector> ExecuteCompressed(const RangeQuery& query,
                                         QueryStats* stats) const;

  Options options_;
  uint64_t num_rows_ = 0;
  std::vector<AttributeBitmaps> attributes_;
  /// Per-attribute slot geometry, rebuilt from (scheme, cardinality) — not
  /// serialized.
  std::vector<Slicer> slicers_;
};

}  // namespace incdb

#endif  // INCDB_BITMAP_BITMAP_INDEX_H_
