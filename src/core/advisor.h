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

/// Predicted cost of one index kind for a profile. Costs are the router's
/// per-kind "words touched" per query — comparable across kinds, not
/// wall-clock.
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
/// missing rates matter exactly as in the paper's §5.2 analysis). The
/// per-query cost is the one the query router ranks access paths by
/// (plan::KindCost), charged for the query the profile stands for
/// (Estimate). Recommend() returns the cheapest kind whose
/// predicted size fits the memory budget, so on a store holding every kind
/// the router serves that query from the recommended one.
class IndexAdvisor {
 public:
  /// Gathers histograms for every attribute (one pass over the table).
  explicit IndexAdvisor(const Table& table);

  /// Predicted size/cost for one kind. The cost is charged for the query a
  /// profile stands for: one term on each of the first `dims` attributes,
  /// each as wide as the profile's selectivity makes it (rounded, at least
  /// one value) and centred in its domain; when the values left over do
  /// not split evenly, the extra one lies above.
  IndexCostEstimate Estimate(IndexKind kind,
                             const WorkloadProfile& profile) const;

  /// All kinds whose predicted size fits `memory_budget_bytes`, sorted by
  /// ascending predicted query cost, exact ties broken by the router's
  /// preference order. The scan always qualifies.
  std::vector<IndexCostEstimate> Rank(const WorkloadProfile& profile,
                                      double memory_budget_bytes) const;

  /// The cheapest qualifying kind.
  IndexKind Recommend(const WorkloadProfile& profile,
                      double memory_budget_bytes = 1e18) const;

  const AttributeHistogram& histogram(size_t attr) const {
    return histograms_[attr];
  }

 private:
  RangeQuery SynthesizeQuery(const WorkloadProfile& profile) const;
  double SizeBytes(IndexKind kind) const;

  Schema schema_;
  uint64_t num_rows_;
  std::vector<AttributeHistogram> histograms_;
  /// histograms_[a].missing_count(), the cost model's missing input.
  std::vector<uint64_t> missing_counts_;
};

}  // namespace incdb

#endif  // INCDB_CORE_ADVISOR_H_
