#include "bitmap/bitmap_index.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <span>

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

// Calls fn(row, value) for rows [0, num_rows) in order, a contiguous run
// of cells at a time.
template <typename Fn>
void ForEachCell(const Column& column, uint64_t num_rows, Fn&& fn) {
  for (uint64_t row = 0; row < num_rows;) {
    const Column::Contiguous run = column.ContiguousAt(row);
    const uint64_t end = std::min(num_rows, row + run.count);
    for (uint64_t r = row; r < end; ++r) {
      fn(static_cast<uint32_t>(r), run.data[r - row]);
    }
    row = end;
  }
}

// One counting sort of a column's rows by value: slot v-1 holds the rows of
// value v and slot C, the last, the missing rows — each ascending, since
// rows are placed in row order.
SlotRows SortRowsByValue(const Column& column, uint64_t num_rows) {
  const uint32_t cardinality = column.cardinality();
  // Missing (0) wraps past the domain to slot C; so would a corrupt value
  // outside [1, C], which therefore can never write out of bounds.
  auto slot_of = [cardinality](Value v) {
    return std::min(static_cast<uint32_t>(v) - 1, cardinality);
  };
  // Counts go two entries up, so after the prefix sum begin[s+1] is slot
  // s's start; placing a row bumps it to slot s+1's start, which leaves
  // begin[s] = slot s's start for every s without a second offsets array.
  SlotRows sorted;
  sorted.begin.assign(static_cast<size_t>(cardinality) + 3, 0);
  ForEachCell(column, num_rows,
              [&](uint32_t, Value v) { ++sorted.begin[slot_of(v) + 2]; });
  std::partial_sum(sorted.begin.begin(), sorted.begin.end(),
                   sorted.begin.begin());
  sorted.rows.resize(num_rows);
  ForEachCell(column, num_rows, [&](uint32_t row, Value v) {
    sorted.rows[sorted.begin[slot_of(v) + 1]++] = row;
  });
  sorted.begin.pop_back();
  return sorted;
}

// Writes the sorted union of two disjoint ascending row lists to `out`.
// Branch-free: the two sides of a hierarchical bin interleave at random,
// which would defeat a branch predictor on every row.
void MergeRows(std::span<const uint32_t> a, std::span<const uint32_t> b,
               uint32_t* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    const bool take_b = y < x;
    *out++ = take_b ? y : x;
    i += take_b ? 0 : 1;
    j += take_b ? 1 : 0;
  }
  out = std::copy(a.begin() + i, a.end(), out);
  std::copy(b.begin() + j, b.end(), out);
}

// Hierarchical level l+1 from level l's first `num_slots` slots: bin b is
// the merge of bins 2b and 2b+1 (the clipped top bin has no sibling), so
// it starts where bin 2b did.
SlotRows MergeSlotPairs(const SlotRows& level, uint32_t num_slots) {
  const size_t parents = bitutil::CeilDiv(num_slots, 2);
  SlotRows up;
  up.begin.resize(parents + 1);
  up.rows.resize(level.begin[num_slots]);
  for (size_t b = 0; b < parents; ++b) {
    up.begin[b] = level.begin[2 * b];
    const std::span<const uint32_t> left = level[2 * b];
    const std::span<const uint32_t> right =
        2 * b + 1 < num_slots ? level[2 * b + 1] : std::span<const uint32_t>();
    MergeRows(left, right, up.rows.data() + up.begin[b]);
  }
  up.begin[parents] = level.begin[num_slots];
  return up;
}

// A multi-component axis: slot s unions the values whose digit on this axis
// is s — runs of `divisor` consecutive values, one every num_slots *
// divisor — in one group-word pass.
std::vector<WahBitVector> EncodeDigitAxis(const SlotRows& by_value,
                                          uint32_t cardinality,
                                          const Slicer::Axis& axis,
                                          uint64_t num_rows) {
  std::vector<WahBitVector> bitmaps;
  bitmaps.reserve(axis.num_slots);
  GroupWords slot_words(num_rows);
  const uint64_t stride = uint64_t{axis.num_slots} * axis.divisor;
  for (uint32_t s = 0; s < axis.num_slots; ++s) {
    if (s > 0) slot_words.Reset();
    for (uint64_t first = s * axis.divisor; first < cardinality;
         first += stride) {
      const uint64_t last =
          std::min<uint64_t>(first + axis.divisor, cardinality);
      for (uint64_t v = first; v < last; ++v) slot_words.Set(by_value[v]);
    }
    bitmaps.push_back(slot_words.Encode());
  }
  return bitmaps;
}

// The multi-component scheme's digit-range decomposition, shared by
// EvalMixedRadix and TermReads' count of its reads: rows whose mixed-radix
// code over axes [0, axis] lies in [lo, hi] split on the top digit. An edge
// digit is intersected with the lower axes' remainder range, the aligned
// middle is one top-axis digit interval (every lower-digit combination
// matches; slots past the domain hold empty bitmaps), and the pieces are
// united. digits(axis, d_lo, d_hi) answers one digit interval of an axis,
// both(digit, lower) intersects and any(pieces) unites.
template <typename T, typename Digits, typename Both, typename Any>
T DecomposeMixedRadix(const Slicer& slicer, size_t axis, uint64_t lo,
                      uint64_t hi, const Digits& digits, const Both& both,
                      const Any& any) {
  if (axis == 0) return digits(axis, lo, hi);
  auto lower = [&](uint64_t from, uint64_t to) {
    return DecomposeMixedRadix<T>(slicer, axis - 1, from, to, digits, both,
                                  any);
  };
  const uint64_t div = slicer.axes()[axis].divisor;
  uint64_t d_lo = lo / div;
  uint64_t d_hi = hi / div;
  const uint64_t rem_lo = lo % div;
  const uint64_t rem_hi = hi % div;
  if (d_lo == d_hi) {
    return both(digits(axis, d_lo, d_lo), lower(rem_lo, rem_hi));
  }
  std::vector<T> pieces;
  if (rem_lo != 0) {
    pieces.push_back(both(digits(axis, d_lo, d_lo), lower(rem_lo, div - 1)));
    ++d_lo;
  }
  if (rem_hi != div - 1) {
    pieces.push_back(both(digits(axis, d_hi, d_hi), lower(0, rem_hi)));
    --d_hi;
  }
  if (d_lo <= d_hi) pieces.push_back(digits(axis, d_lo, d_hi));
  return any(std::move(pieces));
}

}  // namespace

Result<BitmapIndex> BitmapIndex::Build(const Table& table, Options options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build a bitmap index on an empty table");
  }
  if (table.num_rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "cannot build a bitmap index past 2^32 - 1 rows (row ids are 32-bit)");
  }
  INCDB_RETURN_IF_ERROR(CheckOptions(options));

  const uint64_t n = table.num_rows();
  std::vector<AttributeBitmaps> attributes;
  std::vector<Slicer> slicers;
  attributes.reserve(table.num_attributes());
  slicers.reserve(table.num_attributes());

  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const uint32_t cardinality = table.column(a).cardinality();
    SlotRows by_value = SortRowsByValue(table.column(a), n);
    const std::span<const uint32_t> missing = by_value[cardinality];
    AttributeBitmaps ab;
    ab.cardinality = cardinality;
    ab.has_missing = !missing.empty();

    if (options.missing_strategy == MissingStrategy::kAllOnes &&
        ab.has_missing && cardinality == 1) {
      return Status::NotSupported(
          "attribute '" + table.schema().attribute(a).name +
          "': kAllOnes cannot distinguish missing from the single value when "
          "cardinality is 1 (paper §4.2)");
    }

    INCDB_ASSIGN_OR_RETURN(Slicer slicer,
                           Slicer::Create(options.scheme, cardinality));
    if (ab.has_missing &&
        options.missing_strategy == MissingStrategy::kExtraBitmap) {
      // B_{i,0} once per attribute, never per axis.
      ab.missing = WahBitVector::FromPositions(missing, n);
    }
    ab.axes.reserve(slicer.num_axes());
    switch (options.scheme) {
      case SlotScheme::kDirect: {
        // Missing rows are set in every stored bitmap under range encoding
        // (missing counts as value 0) and under kAllOnes; absent otherwise.
        const bool everywhere =
            options.encoding == BitmapEncoding::kRange ||
            options.missing_strategy == MissingStrategy::kAllOnes;
        ab.axes.push_back(EncodeAxis(options.encoding, by_value, cardinality,
                                     everywhere ? missing
                                                : std::span<const uint32_t>(),
                                     n));
        break;
      }
      case SlotScheme::kHierarchical:
        // Level 0 is the value slots themselves; each level above merges
        // the one below pairwise.
        for (size_t axis = 0; axis < slicer.num_axes(); ++axis) {
          if (axis > 0) {
            by_value = MergeSlotPairs(by_value, slicer.num_slots(axis - 1));
          }
          ab.axes.push_back(EncodeAxis(BitmapEncoding::kEquality, by_value,
                                       slicer.num_slots(axis), {}, n));
        }
        break;
      case SlotScheme::kMultiComponent:
        for (const Slicer::Axis& axis : slicer.axes()) {
          ab.axes.push_back(EncodeDigitAxis(by_value, cardinality, axis, n));
        }
        break;
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

WahBitVector BitmapIndex::EvalMixedRadix(size_t attr, Interval interval,
                                         QueryStats* stats) const {
  // Every per-axis probe goes through the shared equality evaluator under
  // no-match semantics, so B_0 strips missing rows on the complement path
  // and the AND/OR composition never resurrects them.
  auto count_op = [&](uint64_t n) {
    if (stats != nullptr) stats->bitvector_ops += n;
  };
  const Slicer& slicer = slicers_[attr];
  return DecomposeMixedRadix<WahBitVector>(
      slicer, slicer.num_axes() - 1, static_cast<uint64_t>(interval.lo) - 1,
      static_cast<uint64_t>(interval.hi) - 1,
      [&](size_t axis, uint64_t d_lo, uint64_t d_hi) {
        if (stats != nullptr) ++stats->probe_components;
        return EvaluateSlotInterval(
            BitmapEncoding::kEquality, AxisOf(attr, axis),
            {static_cast<Value>(d_lo + 1), static_cast<Value>(d_hi + 1)},
            MissingStrategy::kExtraBitmap, MissingSemantics::kNoMatch, stats);
      },
      [&](const WahBitVector& digit, const WahBitVector& lower) {
        count_op(1);
        return digit.And(lower);
      },
      [&](std::vector<WahBitVector> pieces) {
        if (pieces.size() == 1) return std::move(pieces.front());
        std::vector<const WahBitVector*> ptrs;
        ptrs.reserve(pieces.size());
        for (const WahBitVector& piece : pieces) ptrs.push_back(&piece);
        count_op(pieces.size() - 1);
        WahStatsScope op_scope(stats);
        return WahBitVector::OrMany(ptrs, op_scope.get());
      });
}

WahBitVector BitmapIndex::EvalHierarchical(size_t attr, Interval interval,
                                           MissingSemantics semantics,
                                           QueryStats* stats) const {
  // Segment-tree cover of [lo, hi] (ForEachCoverBin), every bin fused
  // into one OrMany; the clipped top bin simply has an absent sibling.
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

  ForEachCoverBin(static_cast<uint64_t>(interval.lo) - 1,
                  static_cast<uint64_t>(interval.hi) - 1, probe);
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
  WahBitVector result = EvalMixedRadix(attr, interval, stats);
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

uint64_t BitmapIndex::TermReads(const Options& options, uint32_t cardinality,
                                Interval interval, MissingSemantics semantics,
                                bool has_missing) {
  const bool missing_bitmap =
      has_missing && options.missing_strategy == MissingStrategy::kExtraBitmap;
  if (options.scheme == SlotScheme::kDirect) {
    return SlotIntervalReads(options.encoding, cardinality, interval,
                             options.missing_strategy, semantics,
                             missing_bitmap);
  }
  const bool match = semantics == MissingSemantics::kMatch;
  if (interval.lo == 1 && interval.hi == static_cast<Value>(cardinality)) {
    return !match && missing_bitmap ? 1 : 0;
  }
  const uint64_t lo = static_cast<uint64_t>(interval.lo) - 1;
  const uint64_t hi = static_cast<uint64_t>(interval.hi) - 1;
  uint64_t reads = match && missing_bitmap ? 1 : 0;
  if (options.scheme == SlotScheme::kHierarchical) {
    ForEachCoverBin(lo, hi, [&reads](size_t, uint64_t) { ++reads; });
    return reads;
  }
  const Result<Slicer> slicer = Slicer::Create(options.scheme, cardinality);
  if (!slicer.ok()) return reads;
  return reads + DecomposeMixedRadix<uint64_t>(
                     slicer.value(), slicer.value().num_axes() - 1, lo, hi,
                     [&](size_t axis, uint64_t d_lo, uint64_t d_hi) {
                       return SlotIntervalReads(
                           BitmapEncoding::kEquality,
                           slicer.value().num_slots(axis),
                           {static_cast<Value>(d_lo + 1),
                            static_cast<Value>(d_hi + 1)},
                           MissingStrategy::kExtraBitmap,
                           MissingSemantics::kNoMatch, missing_bitmap);
                     },
                     std::plus<uint64_t>(),
                     [](const std::vector<uint64_t>& pieces) {
                       return std::accumulate(pieces.begin(), pieces.end(),
                                              uint64_t{0});
                     });
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
          NumAxisBitmaps(options.encoding, slicer.num_slots(axis));
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
