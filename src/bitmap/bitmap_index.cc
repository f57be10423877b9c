#include "bitmap/bitmap_index.h"

#include <algorithm>

#include "bitmap/slicer.h"
#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

namespace {

// The option combinations the engine can build and answer.
Status CheckOptions(const BitmapIndex::Options& options) {
  if (options.scheme != SlotScheme::kDirect &&
      (options.encoding != BitmapEncoding::kEquality ||
       options.missing_strategy != MissingStrategy::kExtraBitmap)) {
    return Status::NotSupported(
        "multi-component and hierarchical slicers take equality encoding "
        "with the extra missing bitmap only");
  }
  if (options.missing_strategy != MissingStrategy::kExtraBitmap &&
      options.encoding != BitmapEncoding::kEquality) {
    return Status::NotSupported(
        "kAllOnes/kAllZeros missing strategies apply to equality encoding only");
  }
  return Status::OK();
}

}  // namespace

Result<BitmapIndex> BitmapIndex::Build(const Table& table, Options options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build a bitmap index on an empty table");
  }
  INCDB_RETURN_IF_ERROR(CheckOptions(options));

  const uint64_t n = table.num_rows();
  std::vector<AttributeBitmaps> attributes;
  std::vector<Slicer> slicers;
  attributes.reserve(table.num_attributes());
  slicers.reserve(table.num_attributes());

  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const Column& column = table.column(a);
    const uint32_t cardinality = column.cardinality();
    AttributeBitmaps ab;
    ab.cardinality = cardinality;
    ab.has_missing = column.MissingCount() > 0;

    if (options.missing_strategy == MissingStrategy::kAllOnes &&
        ab.has_missing && cardinality == 1) {
      return Status::NotSupported(
          "attribute '" + table.schema().attribute(a).name +
          "': kAllOnes cannot distinguish missing from the single value when "
          "cardinality is 1 (paper §4.2)");
    }

    // The slicer maps each value to one slot per axis; one encoder per
    // axis turns the slot stream into that axis's bitvectors.
    INCDB_ASSIGN_OR_RETURN(Slicer slicer,
                           Slicer::Create(options.scheme, cardinality));
    std::vector<AxisEncoder> encoders;
    encoders.reserve(slicer.num_axes());
    for (size_t axis = 0; axis < slicer.num_axes(); ++axis) {
      encoders.emplace_back(options.encoding, slicer.num_slots(axis));
    }
    SetBitBuilder missing_builder;
    for (uint64_t r = 0; r < n; ++r) {
      const Value v = column.Get(r);
      if (IsMissing(v)) {
        switch (options.missing_strategy) {
          case MissingStrategy::kExtraBitmap:
            // B_{i,0} once per attribute, never per axis.
            missing_builder.SetBitAt(r);
            encoders[0].AddMissingRow(r);  // range: missing counts as value 0
            break;
          case MissingStrategy::kAllOnes:  // direct scheme only
            for (uint32_t s = 0; s < cardinality; ++s) encoders[0].AddRow(r, s);
            break;
          case MissingStrategy::kAllZeros:
            break;  // absent from every bitmap
        }
      } else {
        for (size_t axis = 0; axis < encoders.size(); ++axis) {
          encoders[axis].AddRow(r, slicer.SlotOf(v, axis));
        }
      }
    }
    ab.axes.reserve(encoders.size());
    for (AxisEncoder& encoder : encoders) ab.axes.push_back(encoder.Finish(n));
    if (ab.has_missing &&
        options.missing_strategy == MissingStrategy::kExtraBitmap) {
      ab.missing = missing_builder.Finish(n);
    }
    attributes.push_back(std::move(ab));
    slicers.push_back(std::move(slicer));
  }
  return BitmapIndex(options, n, std::move(attributes), std::move(slicers));
}

std::string BitmapIndex::Name() const {
  switch (options_.scheme) {
    case SlotScheme::kMultiComponent:
      return "MC-WAH";
    case SlotScheme::kHierarchical:
      return "HIER-WAH";
    case SlotScheme::kDirect:
      break;
  }
  std::string name(BitmapEncodingToString(options_.encoding));
  name += "-WAH";
  switch (options_.missing_strategy) {
    case MissingStrategy::kExtraBitmap:
      break;
    case MissingStrategy::kAllOnes:
      name += "(all-ones)";
      break;
    case MissingStrategy::kAllZeros:
      name += "(all-zeros)";
      break;
  }
  return name;
}

AxisRef BitmapIndex::AxisOf(size_t attr, size_t axis) const {
  const AttributeBitmaps& ab = attributes_[attr];
  AxisRef ref;
  ref.num_slots = slicers_[attr].num_slots(axis);
  ref.bitmaps = std::span<const WahBitVector>(ab.axes[axis]);
  ref.missing = ab.missing.has_value() ? &*ab.missing : nullptr;
  ref.num_rows = num_rows_;
  return ref;
}

WahBitVector BitmapIndex::EvalMixedRadix(size_t attr, size_t axis,
                                         uint64_t lo, uint64_t hi,
                                         QueryStats* stats) const {
  // Rows whose mixed-radix code over axes [0, axis] lies in [lo, hi] —
  // standard digit-range decomposition: split on the top digit, recurse on
  // the edge digits' remainders, answer the aligned middle with one
  // per-axis slot interval. Every per-axis probe goes through the shared
  // equality evaluator under no-match semantics, so B_0 strips missing
  // rows on the complement path and the AND/OR composition never
  // resurrects them.
  auto digit_range = [&](uint64_t d_lo, uint64_t d_hi) -> WahBitVector {
    if (stats != nullptr) ++stats->probe_components;
    return EvaluateSlotInterval(
        BitmapEncoding::kEquality, AxisOf(attr, axis),
        {static_cast<Value>(d_lo + 1), static_cast<Value>(d_hi + 1)},
        MissingStrategy::kExtraBitmap, MissingSemantics::kNoMatch, stats);
  };
  auto count_op = [&](uint64_t n = 1) {
    if (stats != nullptr) stats->bitvector_ops += n;
  };
  if (axis == 0) return digit_range(lo, hi);

  const uint64_t div = slicers_[attr].axes()[axis].divisor;
  const uint64_t d_lo = lo / div;
  const uint64_t d_hi = hi / div;
  const uint64_t rem_lo = lo % div;
  const uint64_t rem_hi = hi % div;

  if (d_lo == d_hi) {
    WahBitVector sub = EvalMixedRadix(attr, axis - 1, rem_lo, rem_hi, stats);
    count_op();
    return digit_range(d_lo, d_lo).And(sub);
  }

  std::vector<WahBitVector> pieces;
  uint64_t mid_lo = d_lo;
  uint64_t mid_hi = d_hi;
  if (rem_lo != 0) {
    // Low edge: top digit d_lo, lower digits >= rem_lo.
    WahBitVector sub = EvalMixedRadix(attr, axis - 1, rem_lo, div - 1, stats);
    count_op();
    pieces.push_back(digit_range(d_lo, d_lo).And(sub));
    ++mid_lo;
  }
  if (rem_hi != div - 1) {
    // High edge: top digit d_hi, lower digits <= rem_hi.
    WahBitVector sub = EvalMixedRadix(attr, axis - 1, 0, rem_hi, stats);
    count_op();
    pieces.push_back(digit_range(d_hi, d_hi).And(sub));
    --mid_hi;
  }
  if (mid_lo <= mid_hi) {
    // Aligned middle: every lower-digit combination matches, so the top
    // digit interval alone decides (slots past the domain hold empty
    // bitmaps and OR away harmlessly).
    pieces.push_back(digit_range(mid_lo, mid_hi));
  }
  if (pieces.size() == 1) return std::move(pieces.front());
  std::vector<const WahBitVector*> ptrs;
  ptrs.reserve(pieces.size());
  for (const WahBitVector& piece : pieces) ptrs.push_back(&piece);
  count_op(pieces.size() - 1);
  WahStatsScope op_scope(stats);
  return WahBitVector::OrMany(ptrs, op_scope.get());
}

WahBitVector BitmapIndex::EvalHierarchical(size_t attr, Interval interval,
                                           MissingSemantics semantics,
                                           QueryStats* stats) const {
  // Segment-tree cover of [lo, hi]: peel an unaligned edge bin per side,
  // ascend one level, repeat — at most two bins per level, all fused into
  // one OrMany. Bin b at level l+1 is exactly the union of level-l bins 2b
  // and 2b+1 (the clipped top bin simply has an absent sibling), so the
  // cover is exact.
  const AttributeBitmaps& ab = attributes_[attr];
  std::vector<const WahBitVector*> ops;
  int last_level = -1;
  uint64_t levels_probed = 0;
  auto probe = [&](size_t level, uint64_t slot) {
    const WahBitVector& vec = ab.axes[level][static_cast<size_t>(slot)];
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += vec.NumWords();
    }
    if (static_cast<int>(level) != last_level) {
      ++levels_probed;
      last_level = static_cast<int>(level);
    }
    ops.push_back(&vec);
  };

  uint64_t lo = static_cast<uint64_t>(interval.lo) - 1;
  uint64_t hi = static_cast<uint64_t>(interval.hi) - 1;
  size_t level = 0;
  while (true) {
    if (lo > hi) break;
    if (lo == hi) {
      probe(level, lo);
      break;
    }
    if ((lo & 1) != 0) probe(level, lo++);
    if ((hi & 1) == 0) probe(level, hi--);
    if (lo > hi) break;
    lo >>= 1;
    hi >>= 1;
    ++level;
  }
  if (stats != nullptr) stats->probe_levels += levels_probed;

  if (semantics == MissingSemantics::kMatch && ab.missing.has_value()) {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += ab.missing->NumWords();
    }
    ops.push_back(&*ab.missing);
  }
  if (ops.empty()) return WahBitVector::Fill(num_rows_, false);
  if (stats != nullptr) stats->bitvector_ops += ops.size() - 1;
  WahStatsScope op_scope(stats);
  return WahBitVector::OrMany(ops, op_scope.get());
}

Result<WahBitVector> BitmapIndex::EvaluateInterval(size_t attr,
                                                   Interval interval,
                                                   MissingSemantics semantics,
                                                   QueryStats* stats) const {
  if (attr >= attributes_.size()) {
    return Status::OutOfRange("attribute index " + std::to_string(attr) +
                              " out of range");
  }
  const AttributeBitmaps& ab = attributes_[attr];
  if (interval.lo < 1 ||
      interval.hi > static_cast<Value>(ab.cardinality) ||
      interval.lo > interval.hi) {
    return Status::InvalidArgument("interval [" + std::to_string(interval.lo) +
                                   "," + std::to_string(interval.hi) +
                                   "] invalid for cardinality " +
                                   std::to_string(ab.cardinality));
  }
  if (options_.missing_strategy == MissingStrategy::kAllOnes &&
      semantics != MissingSemantics::kMatch) {
    return Status::NotSupported(
        "kAllOnes encodes missing as a universal match; it cannot answer "
        "missing-not-match queries (paper §4.2)");
  }
  if (options_.missing_strategy == MissingStrategy::kAllZeros &&
      semantics != MissingSemantics::kNoMatch) {
    return Status::NotSupported(
        "kAllZeros erases missing rows; it cannot answer missing-is-match "
        "queries (paper §4.2)");
  }
  if (options_.scheme == SlotScheme::kDirect) {
    return EvaluateSlotInterval(options_.encoding, AxisOf(attr, 0), interval,
                                options_.missing_strategy, semantics, stats);
  }

  // Composite schemes: a full-domain term needs no probe tree.
  if (interval.lo == 1 &&
      interval.hi == static_cast<Value>(ab.cardinality)) {
    if (semantics == MissingSemantics::kMatch || !ab.missing.has_value()) {
      return WahBitVector::Fill(num_rows_, true);
    }
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      ++stats->bitvector_ops;
      stats->words_touched += ab.missing->NumWords();
    }
    return ab.missing->Not();
  }
  if (options_.scheme == SlotScheme::kHierarchical) {
    return EvalHierarchical(attr, interval, semantics, stats);
  }
  WahBitVector result =
      EvalMixedRadix(attr, slicers_[attr].num_axes() - 1,
                     static_cast<uint64_t>(interval.lo) - 1,
                     static_cast<uint64_t>(interval.hi) - 1, stats);
  if (semantics == MissingSemantics::kMatch && ab.missing.has_value()) {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      ++stats->bitvector_ops;
      stats->words_touched += ab.missing->NumWords();
    }
    result = result.Or(*ab.missing);
  }
  return result;
}

Result<std::vector<WahBitVector>> BitmapIndex::EvaluateTerms(
    const RangeQuery& query, QueryStats* stats) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must have at least one term");
  }
  std::vector<WahBitVector> terms;
  terms.reserve(query.terms.size());
  for (const QueryTerm& term : query.terms) {
    INCDB_ASSIGN_OR_RETURN(
        WahBitVector term_result,
        EvaluateInterval(term.attribute, term.interval, query.semantics,
                         stats));
    terms.push_back(std::move(term_result));
  }
  return terms;
}

namespace {

std::vector<const WahBitVector*> Pointers(
    const std::vector<WahBitVector>& vecs) {
  std::vector<const WahBitVector*> ptrs;
  ptrs.reserve(vecs.size());
  for (const WahBitVector& vec : vecs) ptrs.push_back(&vec);
  return ptrs;
}

// Bit-sliced "count of rows matching `query result` AND value == v": one
// fused AndManyCount over the accumulator and the (optionally complemented)
// slices — neither the equality bitvector nor the conjunction is ever
// materialized.
uint64_t FusedSlicedValueCount(const WahBitVector& acc,
                               const std::vector<WahBitVector>& slices,
                               uint32_t v, QueryStats* stats) {
  std::vector<WahBitVector::Operand> ops;
  ops.reserve(slices.size() + 1);
  ops.push_back({&acc, false});
  for (size_t k = 0; k < slices.size(); ++k) {
    ops.push_back({&slices[k], ((v >> k) & 1) == 0});
  }
  if (stats != nullptr) {
    stats->bitvectors_accessed += slices.size();
    stats->bitvector_ops += slices.size();
    stats->words_touched += acc.NumWords();
    for (const WahBitVector& s : slices) stats->words_touched += s.NumWords();
  }
  WahStatsScope op_scope(stats);
  return WahBitVector::AndManyCount(
      std::span<const WahBitVector::Operand>(ops), op_scope.get());
}

}  // namespace

Result<WahBitVector> BitmapIndex::ExecuteCompressed(const RangeQuery& query,
                                                    QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(std::vector<WahBitVector> terms,
                         EvaluateTerms(query, stats));
  if (terms.size() == 1) return std::move(terms.front());
  // Cross-attribute conjunction as one fused k-way AND.
  if (stats != nullptr) stats->bitvector_ops += terms.size() - 1;
  WahStatsScope op_scope(stats);
  return WahBitVector::AndMany(Pointers(terms), op_scope.get());
}

Result<BitVector> BitmapIndex::Execute(const RangeQuery& query,
                                       QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(WahBitVector acc, ExecuteCompressed(query, stats));
  return acc.Decompress();
}

Result<uint64_t> BitmapIndex::CountValue(const WahBitVector& acc,
                                         size_t attr, uint32_t v,
                                         QueryStats* stats,
                                         WahOpStats* op_stats) const {
  const AttributeBitmaps& ab = attributes_[attr];
  if (options_.scheme == SlotScheme::kDirect) {
    if (options_.encoding == BitmapEncoding::kEquality &&
        options_.missing_strategy != MissingStrategy::kAllOnes) {
      // "value == v" is the stored bitmap itself; count acc AND B_{i,v}
      // straight off index storage.
      const WahBitVector& group = ab.axes[0][v - 1];
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + group.NumWords();
      }
      return WahBitVector::AndCount(acc, group, op_stats);
    }
    if (options_.encoding == BitmapEncoding::kBitSliced) {
      return FusedSlicedValueCount(acc, ab.axes[0], v, stats);
    }
  }
  // The per-value bitvector falls out of the interval evaluator for any
  // encoding and scheme: a no-match point query is exactly "value == v".
  INCDB_ASSIGN_OR_RETURN(
      WahBitVector group,
      EvaluateInterval(attr, {static_cast<Value>(v), static_cast<Value>(v)},
                       MissingSemantics::kNoMatch, stats));
  const uint64_t count = WahBitVector::AndCount(acc, group, op_stats);
  if (stats != nullptr) {
    ++stats->bitvector_ops;
    stats->words_touched += acc.NumWords() + group.NumWords();
  }
  return count;
}

Result<BitmapIndex::Aggregate> BitmapIndex::ExecuteAggregate(
    const RangeQuery& query, size_t agg_attr, QueryStats* stats) const {
  if (agg_attr >= attributes_.size()) {
    return Status::OutOfRange("aggregate attribute index " +
                              std::to_string(agg_attr) + " out of range");
  }
  INCDB_ASSIGN_OR_RETURN(WahBitVector acc, ExecuteCompressed(query, stats));
  const AttributeBitmaps& ab = attributes_[agg_attr];
  Aggregate aggregate;
  WahStatsScope op_scope(stats);

  if (options_.scheme == SlotScheme::kDirect &&
      options_.encoding == BitmapEncoding::kBitSliced) {
    // Bit-sliced fast path: SUM = Σ_k 2^k * |acc ∧ S_k|; COUNT = matching
    // rows that appear in at least one slice... cheaper: total matches
    // minus the missing ones (code 0 is absent from every slice, but so is
    // no real value, since values start at 1 and always have some bit set).
    // Every popcount runs through the fused AndCount kernel.
    const std::vector<WahBitVector>& slices = ab.axes[0];
    for (size_t k = 0; k < slices.size(); ++k) {
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + slices[k].NumWords();
      }
      aggregate.sum += (uint64_t{1} << k) *
                       WahBitVector::AndCount(acc, slices[k], op_scope.get());
    }
    if (ab.missing.has_value()) {
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + ab.missing->NumWords();
      }
      aggregate.missing_count =
          WahBitVector::AndCount(acc, *ab.missing, op_scope.get());
    }
    aggregate.count = acc.Count() - aggregate.missing_count;
    // Min/max still need the per-value walk (early-exit from each end);
    // each probe is one fused count over acc and the slices.
    for (uint32_t v = 1; v <= ab.cardinality && aggregate.count > 0; ++v) {
      if (FusedSlicedValueCount(acc, slices, v, stats) > 0) {
        aggregate.min = static_cast<Value>(v);
        break;
      }
    }
    for (uint32_t v = ab.cardinality; v >= 1 && aggregate.count > 0; --v) {
      if (FusedSlicedValueCount(acc, slices, v, stats) > 0) {
        aggregate.max = static_cast<Value>(v);
        break;
      }
    }
  } else {
    // Generic path: per-value fused counts (as in ExecuteGroupCount).
    for (uint32_t v = 1; v <= ab.cardinality; ++v) {
      INCDB_ASSIGN_OR_RETURN(
          uint64_t count, CountValue(acc, agg_attr, v, stats, op_scope.get()));
      if (count == 0) continue;
      if (aggregate.count == 0) aggregate.min = static_cast<Value>(v);
      aggregate.max = static_cast<Value>(v);
      aggregate.count += count;
      aggregate.sum += count * v;
    }
    aggregate.missing_count = acc.Count() - aggregate.count;
  }

  if (aggregate.count > 0) {
    aggregate.mean = static_cast<double>(aggregate.sum) /
                     static_cast<double>(aggregate.count);
  }
  return aggregate;
}

Result<uint64_t> BitmapIndex::ExecuteCount(const RangeQuery& query,
                                           QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(std::vector<WahBitVector> terms,
                         EvaluateTerms(query, stats));
  // Fused count over the term conjunction: the AND result itself is never
  // materialized (for a single term this degenerates to Count()).
  if (stats != nullptr) stats->bitvector_ops += terms.size() - 1;
  WahStatsScope op_scope(stats);
  return WahBitVector::AndManyCount(Pointers(terms), op_scope.get());
}

Result<std::vector<uint64_t>> BitmapIndex::ExecuteGroupCount(
    const RangeQuery& query, size_t group_attr, QueryStats* stats) const {
  if (group_attr >= attributes_.size()) {
    return Status::OutOfRange("group attribute index " +
                              std::to_string(group_attr) + " out of range");
  }
  INCDB_ASSIGN_OR_RETURN(WahBitVector acc, ExecuteCompressed(query, stats));
  const uint32_t cardinality = attributes_[group_attr].cardinality;
  WahStatsScope op_scope(stats);
  std::vector<uint64_t> counts(cardinality + 1, 0);
  uint64_t grouped = 0;
  // Every per-group count runs through a fused count kernel; no result
  // vector is ever materialized per group.
  for (uint32_t v = 1; v <= cardinality; ++v) {
    INCDB_ASSIGN_OR_RETURN(
        counts[v], CountValue(acc, group_attr, v, stats, op_scope.get()));
    grouped += counts[v];
  }
  // Missing-group bucket = matches not in any value group.
  counts[0] = acc.Count() - grouped;
  return counts;
}

Result<BitmapIndex> BitmapIndex::FromParts(
    Options options, uint64_t num_rows,
    std::vector<AttributeBitmaps> attributes) {
  INCDB_RETURN_IF_ERROR(CheckOptions(options));
  std::vector<Slicer> slicers;
  slicers.reserve(attributes.size());
  for (size_t a = 0; a < attributes.size(); ++a) {
    const AttributeBitmaps& ab = attributes[a];
    const std::string where = "bitmap parts: attribute " + std::to_string(a);
    INCDB_ASSIGN_OR_RETURN(Slicer slicer,
                           Slicer::Create(options.scheme, ab.cardinality));
    if (ab.axes.size() != slicer.num_axes()) {
      return Status::IOError(where + " has " + std::to_string(ab.axes.size()) +
                             " axes, slicer implies " +
                             std::to_string(slicer.num_axes()));
    }
    for (size_t axis = 0; axis < slicer.num_axes(); ++axis) {
      const uint64_t expected =
          AxisEncoder::NumBitmaps(options.encoding, slicer.num_slots(axis));
      if (ab.axes[axis].size() != expected) {
        return Status::IOError(where + " axis " + std::to_string(axis) +
                               " has " + std::to_string(ab.axes[axis].size()) +
                               " bitmaps, encoding implies " +
                               std::to_string(expected));
      }
      for (const WahBitVector& bitmap : ab.axes[axis]) {
        if (bitmap.size() != num_rows) {
          return Status::IOError(where + " bitmap size mismatch");
        }
      }
    }
    if (ab.has_missing != ab.missing.has_value()) {
      return Status::IOError(where + " missing-bitmap flag mismatch");
    }
    if (ab.missing.has_value() && ab.missing->size() != num_rows) {
      return Status::IOError(where + " missing bitmap size mismatch");
    }
    slicers.push_back(std::move(slicer));
  }
  return BitmapIndex(options, num_rows, std::move(attributes),
                     std::move(slicers));
}

uint64_t BitmapIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (size_t a = 0; a < attributes_.size(); ++a) {
    total += AttributeSizeInBytes(a);
  }
  return total;
}

uint64_t BitmapIndex::AttributeSizeInBytes(size_t attr) const {
  const AttributeBitmaps& ab = attributes_[attr];
  uint64_t total = ab.missing.has_value() ? ab.missing->SizeInBytes() : 0;
  for (const std::vector<WahBitVector>& axis : ab.axes) {
    for (const WahBitVector& bitmap : axis) total += bitmap.SizeInBytes();
  }
  return total;
}

size_t BitmapIndex::NumBitmaps(size_t attr) const {
  const AttributeBitmaps& ab = attributes_[attr];
  size_t total = ab.missing.has_value() ? 1 : 0;
  for (const std::vector<WahBitVector>& axis : ab.axes) total += axis.size();
  return total;
}

uint64_t BitmapIndex::VerbatimSizeInBytes() const {
  uint64_t total = 0;
  const uint64_t bytes_per_bitmap = bitutil::CeilDiv(num_rows_, 8);
  for (size_t a = 0; a < attributes_.size(); ++a) {
    total += NumBitmaps(a) * bytes_per_bitmap;
  }
  return total;
}

double BitmapIndex::CompressionRatio() const {
  const uint64_t verbatim = VerbatimSizeInBytes();
  if (verbatim == 0) return 0.0;
  return static_cast<double>(SizeInBytes()) / static_cast<double>(verbatim);
}

double BitmapIndex::AttributeCompressionRatio(size_t attr) const {
  const uint64_t verbatim =
      NumBitmaps(attr) * bitutil::CeilDiv(num_rows_, 8);
  if (verbatim == 0) return 0.0;
  return static_cast<double>(AttributeSizeInBytes(attr)) /
         static_cast<double>(verbatim);
}

}  // namespace incdb
