#ifndef INCDB_PLAN_COST_H_
#define INCDB_PLAN_COST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/index_factory.h"
#include "query/query.h"
#include "table/schema.h"

namespace incdb {
namespace plan {

/// The one query-cost model (paper §5.3/§6): predicted words touched when
/// an index of `kind` over `num_rows` rows of `schema` serves one
/// conjunctive term list. A bitmap kind pays, per term, the bitvectors its
/// evaluator reads (BitmapIndex::TermReads) times BitvectorWordCost; an
/// attribute has a missing bitmap when its entry in `missing_counts` (one
/// per attribute of `schema`) is non-zero. The VA-file pays the packed
/// approximation scan plus selectivity-scaled exact refinement; the scan
/// pays one cell read per row per dimension. The router ranks its candidate
/// access paths with it and the index advisor ranks index kinds with it.
double KindCost(const Schema& schema, std::span<const uint64_t> missing_counts,
                uint64_t num_rows, IndexKind kind,
                const std::vector<QueryTerm>& terms,
                MissingSemantics semantics, double estimated_selectivity);

/// Words charged per bitvector a bitmap kind reads over `num_rows` rows:
/// one word per 31 rows, scaled by the active SIMD level's word cost.
double BitvectorWordCost(uint64_t num_rows);

/// Position of `kind` in the paper's tie-break order for point or range
/// queries; lower wins an exact KindCost tie.
int PreferenceRank(IndexKind kind, bool is_point);

/// True when every term is a point (a zero-term list counts as point).
bool TermsArePoint(const std::vector<QueryTerm>& terms);

}  // namespace plan
}  // namespace incdb

#endif  // INCDB_PLAN_COST_H_
