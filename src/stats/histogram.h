#ifndef INCDB_STATS_HISTOGRAM_H_
#define INCDB_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "table/column.h"

namespace incdb {

/// Exact per-attribute value histogram (cardinalities in incdb are small
/// enough to keep full counts), including the missing bucket. The basis of
/// selectivity estimation and the index advisor's size model.
class AttributeHistogram {
 public:
  /// Builds from a column in one pass.
  static AttributeHistogram FromColumn(const Column& column);

  uint32_t cardinality() const { return cardinality_; }
  uint64_t total_rows() const { return total_; }
  uint64_t missing_count() const { return counts_[0]; }
  /// Rows holding exactly `v` (v in [1, cardinality]).
  uint64_t count(Value v) const { return counts_[static_cast<size_t>(v)]; }

  /// Fraction of missing cells — the paper's P_m.
  double MissingRate() const;

  /// Exact fraction of rows a single-term interval matches under the given
  /// semantics (computed from counts, not the uniformity assumption).
  double EstimateTermSelectivity(Interval interval,
                                 MissingSemantics semantics) const;

  /// Skew measure: frequency of the most common non-missing value divided
  /// by the mean non-missing frequency (1.0 = uniform). Drives the WAH
  /// compressibility estimates for real-data-like columns.
  double Skew() const;

  /// Fraction of set bits in the equality bitmap of value `v` — its "bit
  /// density" in the paper's compression analysis.
  double BitDensity(Value v) const;

 private:
  AttributeHistogram(uint32_t cardinality, uint64_t total,
                     std::vector<uint64_t> counts)
      : cardinality_(cardinality), total_(total), counts_(std::move(counts)) {}

  uint32_t cardinality_;
  uint64_t total_;
  std::vector<uint64_t> counts_;  // index 0 = missing
};

}  // namespace incdb

#endif  // INCDB_STATS_HISTOGRAM_H_
