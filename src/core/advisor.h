#ifndef INCDB_CORE_ADVISOR_H_
#define INCDB_CORE_ADVISOR_H_

#include <vector>

#include "core/index_factory.h"
#include "stats/histogram.h"
#include "table/table.h"

namespace incdb {

/// The query mix an index is being chosen for.
struct WorkloadProfile {
  /// Search-key dimensionality k.
  size_t dims = 4;
  /// Per-term attribute selectivity (interval width / cardinality).
  /// Ignored when point_queries is true.
  double attribute_selectivity = 0.1;
  bool point_queries = false;
  MissingSemantics semantics = MissingSemantics::kMatch;
};

/// Predicted cost of one index kind for a profile. Costs are in abstract
/// "word touches" per query — comparable across kinds, not wall-clock.
struct IndexCostEstimate {
  IndexKind kind = IndexKind::kSequentialScan;
  /// Predicted index size in bytes (0 for the scan).
  double size_bytes = 0.0;
  /// Predicted words touched per query.
  double query_cost = 0.0;
};

/// Cost-based index advisor — the paper's §6 "insights into the conditions
/// for which to use each technique", made executable.
///
/// From exact per-attribute histograms it predicts, for every index kind,
/// the index size (via the analytic WAH compression model, so skew and
/// missing rates matter exactly as in the paper's §5.2 analysis) and a
/// per-query cost in word touches (bitvector accesses × expected
/// compressed words for the bitmap family; packed-scan words for the
/// VA-file; cell reads for the scan). Recommend() returns the cheapest kind
/// whose predicted size fits the memory budget — reproducing the paper's
/// guidance: BEE for point queries, BRE for range queries, VA-file under
/// tight memory, scan for tiny tables.
class IndexAdvisor {
 public:
  /// Gathers histograms for every attribute (one pass over the table).
  explicit IndexAdvisor(const Table& table);

  /// Predicted size/cost for one kind.
  IndexCostEstimate Estimate(IndexKind kind,
                             const WorkloadProfile& profile) const;

  /// All kinds whose predicted size fits `memory_budget_bytes`, sorted by
  /// ascending predicted query cost. The scan always qualifies.
  std::vector<IndexCostEstimate> Rank(const WorkloadProfile& profile,
                                      double memory_budget_bytes) const;

  /// The cheapest qualifying kind.
  IndexKind Recommend(const WorkloadProfile& profile,
                      double memory_budget_bytes = 1e18) const;

  const AttributeHistogram& histogram(size_t attr) const {
    return histograms_[attr];
  }

 private:
  double AvgTermWidth(const WorkloadProfile& profile, size_t attr) const;

  uint64_t num_rows_;
  std::vector<AttributeHistogram> histograms_;
};

}  // namespace incdb

#endif  // INCDB_CORE_ADVISOR_H_
