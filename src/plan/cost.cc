#include "plan/cost.h"

#include <algorithm>
#include <cmath>

#include "bitmap/bitmap_index.h"
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

double BitvectorWordCost(uint64_t num_rows) {
  return static_cast<double>(num_rows) / 31.0 * SimdWordCostFactor();
}

double KindCost(const Schema& schema, std::span<const uint64_t> missing_counts,
                uint64_t num_rows, IndexKind kind,
                const std::vector<QueryTerm>& terms,
                MissingSemantics semantics, double estimated_selectivity) {
  const double n = static_cast<double>(num_rows);
  const double dims = static_cast<double>(std::max<size_t>(1, terms.size()));
  const double scan_cost = 0.5 * n * dims;
  const IndexKindInfo* info = FindIndexKind(kind);
  if (info != nullptr && info->bitmap.has_value()) {
    double reads = 0.0;
    for (const QueryTerm& term : terms) {
      reads += static_cast<double>(BitmapIndex::TermReads(
          *info->bitmap, schema.attribute(term.attribute).cardinality,
          term.interval, semantics, missing_counts[term.attribute] > 0));
    }
    return reads * BitvectorWordCost(num_rows);
  }
  if (info != nullptr && info->va.has_value()) {
    double bits = 0.0;
    for (const QueryTerm& term : terms) {
      bits += Log2Ceil(schema.attribute(term.attribute).cardinality) + 1.0;
    }
    return n * bits / 64.0 + estimated_selectivity * scan_cost;
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
