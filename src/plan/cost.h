#ifndef INCDB_PLAN_COST_H_
#define INCDB_PLAN_COST_H_

#include <cstdint>
#include <vector>

#include "core/index_factory.h"
#include "query/query.h"
#include "table/schema.h"

namespace incdb {
namespace plan {

/// The one query-cost model (paper §5.3/§6): predicted words touched when
/// an index of `kind` over `num_rows` rows of `schema` serves one
/// conjunctive term list. Bitmap kinds pay (bitvector accesses) x (words
/// per full bitvector); the VA-file pays the packed approximation scan plus
/// selectivity-scaled exact refinement; the scan pays one cell read per row
/// per dimension. The router ranks its candidate access paths with it and
/// the index advisor ranks index kinds with it.
double KindCost(const Schema& schema, uint64_t num_rows, IndexKind kind,
                const std::vector<QueryTerm>& terms,
                MissingSemantics semantics, double estimated_selectivity);

/// Position of `kind` in the paper's tie-break order for point or range
/// queries; lower wins an exact KindCost tie.
int PreferenceRank(IndexKind kind, bool is_point);

/// True when every term is a point (a zero-term list counts as point).
bool TermsArePoint(const std::vector<QueryTerm>& terms);

}  // namespace plan
}  // namespace incdb

#endif  // INCDB_PLAN_COST_H_
