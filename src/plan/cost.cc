#include "plan/cost.h"

#include <algorithm>
#include <cmath>

#include "bitmap/slicer.h"
#include "simd/simd.h"

namespace incdb {
namespace plan {

namespace {

// Tie-break order per query shape (paper §6: BEE optimal for point
// queries; BRE typically best for range queries; BIE next — two bitmaps
// per dimension at half BEE's storage; VA-file the fallback index). The
// cost model below reproduces this ordering on its own for the common
// cases; the preference list only decides exact cost ties (e.g. BRE vs
// BIE, both a constant two bitvectors per dimension).
const IndexKind kPointPreference[] = {
    IndexKind::kBitmapEquality,  IndexKind::kBitmapRange,
    IndexKind::kBitmapInterval,  IndexKind::kBitmapBitSliced,
    IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
    IndexKind::kVaFile,          IndexKind::kVaPlusFile,
    IndexKind::kSequentialScan};
const IndexKind kRangePreference[] = {
    IndexKind::kBitmapRange,     IndexKind::kBitmapInterval,
    IndexKind::kBitmapHierarchical, IndexKind::kBitmapMultiComponent,
    IndexKind::kBitmapEquality,  IndexKind::kBitmapBitSliced,
    IndexKind::kVaFile,          IndexKind::kVaPlusFile,
    IndexKind::kSequentialScan};

double Log2Ceil(uint32_t cardinality) {
  return std::ceil(std::log2(static_cast<double>(std::max(2u, cardinality))));
}

/// Effective per-word cost of the fused bitmap kernels relative to the
/// scalar dispatch level (which still runs the hybrid dense-block engine,
/// so these capture only the vector-width gain). The constants are the
/// geometric-mean time ratios vs the scalar level over the full
/// bench_simd_kernels matrix — density x k x word width x kernel (see
/// docs/KERNELS.md; sparse cells never touch the kernels, which is why the
/// all-matrix means sit well above the ~0.3 dense-only ratios). They scale
/// every bitmap kind equally — bitmap-vs-bitmap ranking is untouched — but
/// shift the crossover against the row-oracle scans, whose per-cell cost
/// the wider kernels do not change.
double SimdWordCostFactor() {
  switch (simd::ActiveLevel()) {
    case simd::Level::kAvx2:
      return 0.79;
    case simd::Level::kSse2:
      return 0.83;
    case simd::Level::kScalar:
      return 1.0;
  }
  return 1.0;
}

/// Estimated equality-encoded bitvector accesses for a slot interval of
/// `width` over an axis of `slots`: the evaluator reads the smaller of the
/// inside/outside sides (Fig. 2), plus one for B_0 / the complement pass.
double EqualityProbes(double width, double slots) {
  return std::min(width, slots - width) + 1.0;
}

/// Exact bitmaps-touched count of the multi-component probe tree
/// (BitmapIndex::EvalMixedRadix), computed arithmetically from the
/// slicer's component structure — no dependence on C itself.
double MixedRadixProbes(const Slicer& slicer, size_t axis, uint64_t lo,
                        uint64_t hi) {
  const double slots = static_cast<double>(slicer.num_slots(axis));
  if (axis == 0) {
    return EqualityProbes(static_cast<double>(hi - lo + 1), slots);
  }
  const uint64_t div = slicer.axes()[axis].divisor;
  uint64_t d_lo = lo / div;
  uint64_t d_hi = hi / div;
  const uint64_t rem_lo = lo % div;
  const uint64_t rem_hi = hi % div;
  if (d_lo == d_hi) {
    return 1.0 + MixedRadixProbes(slicer, axis - 1, rem_lo, rem_hi);
  }
  double probes = 0.0;
  if (rem_lo != 0) {
    probes += 1.0 + MixedRadixProbes(slicer, axis - 1, rem_lo, div - 1);
    ++d_lo;
  }
  if (rem_hi != div - 1) {
    probes += 1.0 + MixedRadixProbes(slicer, axis - 1, 0, rem_hi);
    --d_hi;
  }
  if (d_lo <= d_hi) {
    probes += EqualityProbes(static_cast<double>(d_hi - d_lo + 1), slots);
  }
  return probes;
}

/// Exact bin count of the hierarchical segment-tree cover (<= 2 per level),
/// derived from the level structure alone.
double HierarchicalProbes(uint64_t lo, uint64_t hi) {
  double probes = 0.0;
  while (true) {
    if (lo > hi) break;
    if (lo == hi) {
      probes += 1.0;
      break;
    }
    if ((lo & 1) != 0) {
      probes += 1.0;
      ++lo;
    }
    if ((hi & 1) == 0) {
      probes += 1.0;
      --hi;
    }
    if (lo > hi) break;
    lo >>= 1;
    hi >>= 1;
  }
  return probes;
}

}  // namespace

int PreferenceRank(IndexKind kind, bool is_point) {
  const auto& preference = is_point ? kPointPreference : kRangePreference;
  int rank = 0;
  for (IndexKind candidate : preference) {
    if (candidate == kind) return rank;
    ++rank;
  }
  return rank;
}

double KindCost(const Schema& schema, uint64_t num_rows, IndexKind kind,
                const std::vector<QueryTerm>& terms,
                MissingSemantics semantics, double estimated_selectivity) {
  const double n = static_cast<double>(num_rows);
  const double bitvector_words = n / 31.0 * SimdWordCostFactor();
  // Under missing-is-match every dimension also reads the missing bitmap.
  const double missing_extra =
      semantics == MissingSemantics::kMatch ? 1.0 : 0.0;
  const double dims = static_cast<double>(std::max<size_t>(1, terms.size()));
  const double scan_cost = 0.5 * n * dims;
  switch (kind) {
    case IndexKind::kBitmapEquality: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        accesses += static_cast<double>(term.interval.Width()) + missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapRange: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        const bool one_sided =
            term.interval.lo == 1 ||
            term.interval.hi == static_cast<Value>(cardinality);
        accesses += (one_sided ? 1.0 : 2.0) + missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapInterval:
      return (2.0 + missing_extra) * dims * bitvector_words;
    case IndexKind::kBitmapBitSliced: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        accesses +=
            Log2Ceil(schema.attribute(term.attribute).cardinality) + 1.0;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapMultiComponent: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        if (term.interval.lo == 1 &&
            term.interval.hi == static_cast<Value>(cardinality)) {
          accesses += missing_extra;
          continue;
        }
        Result<Slicer> slicer =
            Slicer::Create(SlotScheme::kMultiComponent, cardinality);
        if (!slicer.ok()) {
          accesses += static_cast<double>(term.interval.Width());
          continue;
        }
        accesses += MixedRadixProbes(
                        slicer.value(), slicer.value().num_axes() - 1,
                        static_cast<uint64_t>(term.interval.lo) - 1,
                        static_cast<uint64_t>(term.interval.hi) - 1) +
                    missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapHierarchical: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        if (term.interval.lo == 1 &&
            term.interval.hi == static_cast<Value>(cardinality)) {
          accesses += missing_extra;
          continue;
        }
        accesses += HierarchicalProbes(
                        static_cast<uint64_t>(term.interval.lo) - 1,
                        static_cast<uint64_t>(term.interval.hi) - 1) +
                    missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kVaFile:
    case IndexKind::kVaPlusFile: {
      double bits = 0.0;
      for (const QueryTerm& term : terms) {
        bits += Log2Ceil(schema.attribute(term.attribute).cardinality) + 1.0;
      }
      return n * bits / 64.0 + estimated_selectivity * scan_cost;
    }
    case IndexKind::kSequentialScan:
      return scan_cost;
  }
  return scan_cost;
}

bool TermsArePoint(const std::vector<QueryTerm>& terms) {
  for (const QueryTerm& term : terms) {
    if (!term.interval.IsPoint()) return false;
  }
  return true;
}

}  // namespace plan
}  // namespace incdb
