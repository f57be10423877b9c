#include "bitmap/encoder.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

std::string_view BitmapEncodingToString(BitmapEncoding encoding) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return "BEE";
    case BitmapEncoding::kRange:
      return "BRE";
    case BitmapEncoding::kInterval:
      return "BIE";
    case BitmapEncoding::kBitSliced:
      return "BSL";
  }
  return "unknown";
}

uint32_t IntervalEncodingM(uint32_t cardinality) {
  return (cardinality + 1) / 2;
}

uint32_t IntervalEncodingN(uint32_t cardinality) {
  return cardinality - IntervalEncodingM(cardinality) + 1;
}

GroupWords::GroupWords(uint64_t num_rows)
    : words_(bitutil::CeilDiv(num_rows, WahBitVector::kGroupBits)),
      num_rows_(num_rows) {}

void GroupWords::Set(std::span<const uint32_t> rows) {
  constexpr uint32_t kGroup = WahBitVector::kGroupBits;
  for (uint32_t row : rows) {
    words_[row / kGroup] |= uint32_t{1} << (row % kGroup);
  }
}

void GroupWords::Clear(std::span<const uint32_t> rows) {
  constexpr uint32_t kGroup = WahBitVector::kGroupBits;
  for (uint32_t row : rows) {
    words_[row / kGroup] &= ~(uint32_t{1} << (row % kGroup));
  }
}

void GroupWords::Reset() { std::fill(words_.begin(), words_.end(), 0u); }

WahBitVector GroupWords::Encode() const {
  return WahBitVector::FromGroups(words_, num_rows_);
}

std::vector<WahBitVector> EncodeAxis(BitmapEncoding encoding,
                                     const SlotRows& slots, uint32_t num_slots,
                                     std::span<const uint32_t> everywhere,
                                     uint64_t num_rows) {
  INCDB_DCHECK(slots.num_slots() >= num_slots);
  std::vector<WahBitVector> bitmaps;
  bitmaps.reserve(static_cast<size_t>(NumAxisBitmaps(encoding, num_slots)));
  switch (encoding) {
    case BitmapEncoding::kEquality: {
      std::vector<uint32_t> merged;
      for (uint32_t s = 0; s < num_slots; ++s) {
        std::span<const uint32_t> rows = slots[s];
        if (!everywhere.empty()) {
          merged.resize(rows.size() + everywhere.size());
          std::merge(rows.begin(), rows.end(), everywhere.begin(),
                     everywhere.end(), merged.begin());
          rows = merged;
        }
        bitmaps.push_back(WahBitVector::FromPositions(rows, num_rows));
      }
      break;
    }
    case BitmapEncoding::kRange: {
      // B_j = "value <= j": the ladder starts from the rows below the
      // domain and gains slot j-1 at step j; the all-ones top bitmap B_C is
      // dropped (paper §4.3).
      GroupWords ladder(num_rows);
      ladder.Set(everywhere);
      for (uint32_t j = 1; j < num_slots; ++j) {
        ladder.Set(slots[j - 1]);
        bitmaps.push_back(ladder.Encode());
      }
      break;
    }
    case BitmapEncoding::kInterval: {
      // I_j = values [j, j+m-1] = slots [j-1, j+m-2]: from one window to the
      // next, slot j+m-2 comes in and slot j-2 goes out.
      INCDB_DCHECK(everywhere.empty());
      const uint32_t m = IntervalEncodingM(num_slots);
      const uint32_t n = IntervalEncodingN(num_slots);
      GroupWords window(num_rows);
      for (uint32_t s = 0; s + 1 < m; ++s) window.Set(slots[s]);
      for (uint32_t j = 1; j <= n; ++j) {
        if (j > 1) window.Clear(slots[j - 2]);
        window.Set(slots[j + m - 2]);
        bitmaps.push_back(window.Encode());
      }
      break;
    }
    case BitmapEncoding::kBitSliced: {
      // Slice k holds the rows whose code slot+1 has bit k set (the
      // all-zeros code stays reserved for missing): each slot's rows go
      // into the slices of its code's set bits.
      INCDB_DCHECK(everywhere.empty());
      std::vector<GroupWords> slices(
          static_cast<size_t>(NumAxisBitmaps(encoding, num_slots)),
          GroupWords(num_rows));
      for (uint32_t s = 0; s < num_slots; ++s) {
        for (uint32_t code = s + 1; code != 0; code &= code - 1) {
          slices[static_cast<size_t>(bitutil::CountTrailingZeros(code))].Set(
              slots[s]);
        }
      }
      for (const GroupWords& slice : slices) bitmaps.push_back(slice.Encode());
      break;
    }
  }
  return bitmaps;
}

uint64_t NumAxisBitmaps(BitmapEncoding encoding, uint32_t num_slots) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return num_slots;
    case BitmapEncoding::kRange:
      return num_slots > 0 ? num_slots - 1 : 0;
    case BitmapEncoding::kInterval:
      return IntervalEncodingN(num_slots);
    case BitmapEncoding::kBitSliced:
      return static_cast<uint64_t>(bitutil::BitsForCardinality(num_slots));
  }
  return 0;
}

namespace {

// A bitvector either borrowed from index storage or synthesized on the
// fly. Lets RangeLE hand out stored bitmaps without copying their
// compressed payload (the old hot-path cost of every BRE query).
struct BitmapRef {
  std::optional<WahBitVector> owned;
  const WahBitVector* borrowed = nullptr;

  const WahBitVector& get() const {
    return owned.has_value() ? *owned : *borrowed;
  }
};

// Range encoding: bitvector for "value <= j" (j in [0, C]); j = 0 is the
// missing bitmap (zero fill when the attribute is complete), j = C the
// dropped all-ones bitmap.
BitmapRef RangeLE(const AxisRef& axis, Value j, QueryStats* stats) {
  auto borrow = [&](const WahBitVector& vec) -> BitmapRef {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += vec.NumWords();
    }
    return BitmapRef{std::nullopt, &vec};
  };
  if (j <= 0) {
    // "value <= 0" = the missing rows (missing is encoded as value 0).
    if (axis.missing != nullptr) return borrow(*axis.missing);
    return BitmapRef{WahBitVector::Fill(axis.num_rows, false), nullptr};
  }
  if (static_cast<uint32_t>(j) >= axis.num_slots) {
    // The dropped all-ones B_C.
    return BitmapRef{WahBitVector::Fill(axis.num_rows, true), nullptr};
  }
  return borrow(axis.bitmaps[static_cast<size_t>(j) - 1]);
}

WahBitVector EvaluateEquality(const AxisRef& axis, Interval interval,
                              MissingStrategy strategy,
                              MissingSemantics semantics, QueryStats* stats) {
  const uint32_t cardinality = axis.num_slots;
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  auto access = [&](const WahBitVector& bitmap) -> const WahBitVector* {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += bitmap.NumWords();
    }
    return &bitmap;
  };
  // Collects B_{i,from} .. B_{i,to} as operands for one fused OrMany.
  auto collect = [&](std::vector<const WahBitVector*>& ops, Value from,
                     Value to) {
    for (Value j = from; j <= to; ++j) {
      ops.push_back(access(axis.bitmaps[static_cast<size_t>(j) - 1]));
    }
  };
  // Single-pass k-way union; zero fill when there is nothing to unite.
  auto fused_or = [&](const std::vector<const WahBitVector*>& ops)
      -> WahBitVector {
    if (ops.empty()) return WahBitVector::Fill(axis.num_rows, false);
    if (stats != nullptr) stats->bitvector_ops += ops.size() - 1;
    WahStatsScope op_scope(stats);
    return WahBitVector::OrMany(ops, op_scope.get());
  };

  // Paper Fig. 2: use the direct OR when the interval covers at most half
  // the domain, otherwise complement the OR of the outside bitmaps. We pick
  // the side with fewer bitmaps, which realizes the paper's worst-case
  // bound of min(AS, 1-AS) * C + 1 bitvector accesses. Either side is one
  // fused OrMany pass instead of a pairwise fold.
  const Value width = hi - lo + 1;
  const bool narrow = width <= static_cast<Value>(cardinality) - width;
  std::vector<const WahBitVector*> ops;
  ops.reserve(static_cast<size_t>(
      (narrow ? width : static_cast<Value>(cardinality) - width) + 1));

  if (strategy == MissingStrategy::kAllZeros) {
    // Rejected alternative: missing rows appear in no bitmap, so the
    // complement path would resurrect them; every interval must be answered
    // by the direct OR (the performance drawback the ablation shows).
    collect(ops, lo, hi);
    return fused_or(ops);
  }

  if (strategy == MissingStrategy::kAllOnes) {
    // Rejected alternative (match semantics only): missing rows are 1 in
    // every bitmap, so the direct OR already includes them; the complement
    // path must recover them by ANDing two value bitmaps (only missing rows
    // are set in more than one).
    if (narrow) {
      collect(ops, lo, hi);
      return fused_or(ops);
    }
    collect(ops, 1, lo - 1);
    collect(ops, hi + 1, static_cast<Value>(cardinality));
    WahBitVector result = fused_or(ops).Not();
    if (stats != nullptr) ++stats->bitvector_ops;
    if (cardinality >= 2) {
      WahBitVector missing_rows =
          access(axis.bitmaps[0])->And(*access(axis.bitmaps[1]));
      result = result.Or(missing_rows);
      if (stats != nullptr) stats->bitvector_ops += 2;
    }
    return result;
  }

  // kExtraBitmap — the paper's design (Fig. 2).
  if (narrow) {
    // One fused pass over the inside bitmaps plus B_{i,0} when missing rows
    // count as matches.
    collect(ops, lo, hi);
    if (semantics == MissingSemantics::kMatch && axis.missing != nullptr) {
      ops.push_back(access(*axis.missing));
    }
    return fused_or(ops);
  }
  collect(ops, 1, lo - 1);
  collect(ops, hi + 1, static_cast<Value>(cardinality));
  if (semantics == MissingSemantics::kNoMatch && axis.missing != nullptr) {
    // NOT(outside OR B_0): the complement alone would admit missing rows.
    ops.push_back(access(*axis.missing));
  }
  WahBitVector result = fused_or(ops).Not();
  if (stats != nullptr) ++stats->bitvector_ops;
  return result;
}

WahBitVector EvaluateRange(const AxisRef& axis, Interval interval,
                           MissingSemantics semantics, QueryStats* stats) {
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  auto count_op = [&](int n = 1) {
    if (stats != nullptr) stats->bitvector_ops += static_cast<uint64_t>(n);
  };
  auto access_missing = [&]() -> const WahBitVector& {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    return *axis.missing;
  };
  auto or_missing = [&](WahBitVector r) -> WahBitVector {
    if (axis.missing != nullptr) {
      count_op();
      return r.Or(access_missing());
    }
    return r;
  };
  auto xor_missing = [&](WahBitVector r) -> WahBitVector {
    if (axis.missing != nullptr) {
      count_op();
      return r.Xor(access_missing());
    }
    return r;
  };

  if (semantics == MissingSemantics::kMatch) {
    // Paper Fig. 3(a).
    if (cardinality == 1) return WahBitVector::Fill(axis.num_rows, true);
    if (lo == hi) {
      if (lo == 1) return RangeLE(axis, 1, stats).get();
      if (lo == cardinality) {
        count_op();
        return or_missing(RangeLE(axis, lo - 1, stats).get().Not());
      }
      count_op();
      return or_missing(RangeLE(axis, lo, stats)
                            .get()
                            .Xor(RangeLE(axis, lo - 1, stats).get()));
    }
    if (lo == 1 && hi == cardinality) {
      return WahBitVector::Fill(axis.num_rows, true);
    }
    if (lo == 1) return RangeLE(axis, hi, stats).get();
    if (hi == cardinality) {
      count_op();
      return or_missing(RangeLE(axis, lo - 1, stats).get().Not());
    }
    count_op();
    return or_missing(
        RangeLE(axis, hi, stats).get().Xor(RangeLE(axis, lo - 1, stats).get()));
  }

  // Paper Fig. 3(b) — missing is not a match.
  if (cardinality == 1) {
    if (axis.missing != nullptr) {
      count_op();
      return access_missing().Not();
    }
    return WahBitVector::Fill(axis.num_rows, true);
  }
  if (lo == hi) {
    if (lo == 1) return xor_missing(RangeLE(axis, 1, stats).get());
    if (lo == cardinality) {
      count_op();
      return RangeLE(axis, lo - 1, stats).get().Not();
    }
    count_op();
    return RangeLE(axis, lo, stats)
        .get()
        .Xor(RangeLE(axis, lo - 1, stats).get());
  }
  if (lo == 1 && hi == cardinality) {
    if (axis.missing != nullptr) {
      count_op();
      return access_missing().Not();
    }
    return WahBitVector::Fill(axis.num_rows, true);
  }
  if (lo == 1) return xor_missing(RangeLE(axis, hi, stats).get());
  if (hi == cardinality) {
    count_op();
    return RangeLE(axis, lo - 1, stats).get().Not();
  }
  count_op();
  return RangeLE(axis, hi, stats).get().Xor(RangeLE(axis, lo - 1, stats).get());
}

WahBitVector EvaluateIntervalEncoded(const AxisRef& axis, Interval interval,
                                     MissingSemantics semantics,
                                     QueryStats* stats) {
  // Two-bitmap evaluation rules for the interval encoding, derived from
  // I_j = [j, j+m-1], m = ceil(C/2), n = C-m+1 stored bitmaps. For a query
  // [l, h] of width w = h-l+1:
  //   w == C             -> all ones (no bitmap touched)
  //   w == m             -> I_l
  //   w  > m             -> I_l OR I_{h-m+1}        ([l,l+m-1] ∪ [h-m+1,h],
  //                         contiguous because w <= C <= 2m)
  //   w  < m and h < m   -> I_l AND NOT I_{h+1}     (bottom corner)
  //   w  < m and l > n   -> I_{h-m+1} AND NOT I_{l-m}  (top corner)
  //   w  < m otherwise   -> I_l AND I_{h-m+1}       (window intersection)
  // Missing rows are 0 in every I_j, so: match semantics ORs in B_{i,0};
  // no-match gets correct results for free (the full-domain case excepted,
  // which needs NOT B_{i,0}).
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value m = static_cast<Value>(IntervalEncodingM(axis.num_slots));
  const Value n = static_cast<Value>(IntervalEncodingN(axis.num_slots));
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  const Value width = hi - lo + 1;
  auto bitmap = [&](Value j) -> const WahBitVector& {
    INCDB_DCHECK(j >= 1 && j <= n);
    const WahBitVector& vec = axis.bitmaps[static_cast<size_t>(j) - 1];
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += vec.NumWords();
    }
    return vec;
  };
  auto missing_bitmap = [&]() -> const WahBitVector& {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    return *axis.missing;
  };
  auto count_op = [&]() {
    if (stats != nullptr) ++stats->bitvector_ops;
  };
  const bool or_in_missing =
      semantics == MissingSemantics::kMatch && axis.missing != nullptr;

  if (width == cardinality) {
    if (semantics == MissingSemantics::kMatch || axis.missing == nullptr) {
      return WahBitVector::Fill(axis.num_rows, true);
    }
    count_op();
    return missing_bitmap().Not();
  }

  // The union-shaped cases fuse every operand (including B_{i,0} under
  // match semantics) into one OrMany pass.
  if (width >= m) {
    std::vector<const WahBitVector*> ops;
    ops.push_back(&bitmap(lo));
    if (width > m) ops.push_back(&bitmap(hi - m + 1));
    if (or_in_missing) ops.push_back(&missing_bitmap());
    if (stats != nullptr) stats->bitvector_ops += ops.size() - 1;
    WahStatsScope op_scope(stats);
    return WahBitVector::OrMany(ops, op_scope.get());
  }

  WahBitVector result;
  if (hi < m) {
    result = bitmap(lo).AndNot(bitmap(hi + 1));
    count_op();
  } else if (lo > n) {
    result = bitmap(hi - m + 1).AndNot(bitmap(lo - m));
    count_op();
  } else {
    result = bitmap(lo).And(bitmap(hi - m + 1));
    count_op();
  }
  if (or_in_missing) {
    result = result.Or(missing_bitmap());
    count_op();
  }
  return result;
}

WahBitVector EvaluateBitSliced(const AxisRef& axis, Interval interval,
                               MissingSemantics semantics, QueryStats* stats) {
  // O'Neil-Quass bit-sliced evaluation over the compressed slices.
  // Codes: missing = 0, value v = v; slices S_0..S_{b-1} (LSB first).
  //
  //   EQ(v): running AND of S_k (bit set) / AND-NOT S_k (bit clear).
  //   LE(v): the classic circuit — walk slices MSB→LSB keeping
  //          BLT (certainly less) and BEQ (equal so far):
  //            bit k of v set:   BLT |= BEQ & ~S_k;  BEQ &= S_k
  //            bit k of v clear: BEQ &= ~S_k
  //          LE = BLT | BEQ.
  //   [lo, hi]: LE(hi) AND NOT (lo == 1 ? B_0 : LE(lo-1)) — code 0
  //   (missing) is below every value, so the subtraction also strips
  //   missing rows; match semantics then OR B_0 back in.
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  const int num_slices = static_cast<int>(axis.bitmaps.size());
  auto slice = [&](int k) -> const WahBitVector& {
    const WahBitVector& vec = axis.bitmaps[static_cast<size_t>(k)];
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += vec.NumWords();
    }
    return vec;
  };
  auto count_op = [&](int n = 1) {
    if (stats != nullptr) stats->bitvector_ops += static_cast<uint64_t>(n);
  };
  auto equals = [&](Value v) -> WahBitVector {
    // One fused pass of AND_k (bit k set ? S_k : NOT S_k) — the per-operand
    // complement never materializes NOT S_k.
    std::vector<WahBitVector::Operand> ops;
    ops.reserve(static_cast<size_t>(num_slices));
    for (int k = num_slices - 1; k >= 0; --k) {
      ops.push_back({&slice(k), ((v >> k) & 1) == 0});
    }
    count_op(num_slices);
    WahStatsScope op_scope(stats);
    return WahBitVector::AndMany(std::span<const WahBitVector::Operand>(ops),
                                 op_scope.get());
  };
  auto less_equal = [&](Value v) -> WahBitVector {
    WahBitVector blt = WahBitVector::Fill(axis.num_rows, false);
    WahBitVector beq = WahBitVector::Fill(axis.num_rows, true);
    for (int k = num_slices - 1; k >= 0; --k) {
      const WahBitVector& sk = slice(k);
      if ((v >> k) & 1) {
        blt = blt.Or(beq.AndNot(sk));
        beq = beq.And(sk);
        count_op(3);
      } else {
        beq = beq.AndNot(sk);
        count_op();
      }
    }
    count_op();
    return blt.Or(beq);
  };
  auto missing_rows = [&]() -> WahBitVector {
    if (axis.missing == nullptr) {
      return WahBitVector::Fill(axis.num_rows, false);
    }
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    return *axis.missing;
  };

  WahBitVector base;
  if (lo == hi) {
    base = equals(lo);  // code lo >= 1, so missing (code 0) is excluded
  } else {
    WahBitVector le_hi = hi == cardinality
                             ? WahBitVector::Fill(axis.num_rows, true)
                             : less_equal(hi);
    // Subtract codes <= lo-1; LE(0) is exactly the missing rows.
    WahBitVector below = lo == 1 ? missing_rows() : less_equal(lo - 1);
    base = le_hi.AndNot(below);
    count_op();
  }
  if (semantics == MissingSemantics::kMatch && axis.missing != nullptr) {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    base = base.Or(*axis.missing);
    count_op();
  }
  return base;
}

}  // namespace

WahBitVector EvaluateSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                                  Interval interval, MissingStrategy strategy,
                                  MissingSemantics semantics,
                                  QueryStats* stats) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return EvaluateEquality(axis, interval, strategy, semantics, stats);
    case BitmapEncoding::kRange:
      return EvaluateRange(axis, interval, semantics, stats);
    case BitmapEncoding::kInterval:
      return EvaluateIntervalEncoded(axis, interval, semantics, stats);
    case BitmapEncoding::kBitSliced:
      return EvaluateBitSliced(axis, interval, semantics, stats);
  }
  return WahBitVector::Fill(axis.num_rows, false);
}

uint64_t SlotIntervalReads(BitmapEncoding encoding, uint32_t num_slots,
                           Interval interval, MissingStrategy strategy,
                           MissingSemantics semantics, bool missing_bitmap) {
  const bool match = semantics == MissingSemantics::kMatch;
  const uint64_t c = num_slots;
  const uint64_t lo = static_cast<uint64_t>(interval.lo);
  const uint64_t hi = static_cast<uint64_t>(interval.hi);
  const uint64_t width = hi - lo + 1;
  const uint64_t missing = missing_bitmap ? 1 : 0;
  switch (encoding) {
    case BitmapEncoding::kEquality:
      // Fig. 2: the inside bitmaps or the outside ones, whichever side is
      // smaller; B_0 joins the OR under match semantics and the complement
      // under no-match. kAllZeros always ORs the inside; kAllOnes recovers
      // missing rows on the complement path from B_1 AND B_2.
      if (width <= c - width || strategy == MissingStrategy::kAllZeros) {
        return width + (match ? missing : 0);
      }
      if (strategy == MissingStrategy::kAllOnes) {
        return c - width + (c >= 2 ? 2 : 0);
      }
      return c - width + (match ? 0 : missing);
    case BitmapEncoding::kRange: {
      // Fig. 3 combines "value <= j" bitvectors: B_j for j in [1, C-1], B_0
      // for j = 0 and none for the dropped all-ones j = C. Match: LE(hi) for
      // lo = 1, else LE(hi) XOR LE(lo-1) OR B_0. No-match: LE(hi) XOR
      // LE(lo-1) with LE(0) = B_0.
      const uint64_t le_hi = hi >= c ? 0 : 1;
      if (lo == 1) return le_hi + (match ? 0 : missing);
      return le_hi + 1 + (match ? missing : 0);
    }
    case BitmapEncoding::kInterval:
      // The full domain needs no window (NOT B_0 under no-match); a query
      // exactly m wide is one window, any other width two; match semantics
      // ORs in B_0.
      if (width == c) return match ? 0 : missing;
      return (width == IntervalEncodingM(num_slots) ? 1 : 2) +
             (match ? missing : 0);
    case BitmapEncoding::kBitSliced: {
      // A point reads every slice. A range is LE(hi) AND NOT LE(lo-1): each
      // LE circuit reads every slice, except LE(C) (all ones, none) and
      // LE(0) (= B_0). Match semantics ORs in B_0.
      const uint64_t slices = NumAxisBitmaps(encoding, num_slots);
      const uint64_t reads =
          lo == hi ? slices
                   : (hi == c ? 0 : slices) + (lo == 1 ? missing : slices);
      return reads + (match ? missing : 0);
    }
  }
  return 0;
}

}  // namespace incdb
