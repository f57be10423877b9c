#ifndef INCDB_QUERY_QUERY_H_
#define INCDB_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace incdb {

/// How a missing attribute value interacts with a query interval — the
/// paper's two query semantics (§3).
enum class MissingSemantics {
  /// A missing value counts as satisfying the interval ("could match"):
  /// a tuple answers the query iff every search-key attribute either falls
  /// in its interval or is missing. The paper's analyte/disease example.
  kMatch,
  /// A missing value disqualifies the tuple ("definitely matches"):
  /// a tuple answers iff every search-key attribute is present and falls in
  /// its interval. The paper's survey example.
  kNoMatch,
};

std::string_view MissingSemanticsToString(MissingSemantics semantics);

/// A closed interval v1 <= A_i <= v2 over one attribute's domain.
struct Interval {
  Value lo = 1;
  Value hi = 1;

  bool IsPoint() const { return lo == hi; }
  /// Number of domain values covered.
  uint32_t Width() const { return static_cast<uint32_t>(hi - lo + 1); }
  bool Contains(Value v) const { return v >= lo && v <= hi; }
};

/// One term of a search key: an interval over a specific attribute.
struct QueryTerm {
  size_t attribute = 0;
  Interval interval;
};

/// A k-dimensional range query (point query when every interval is a point).
struct RangeQuery {
  std::vector<QueryTerm> terms;
  MissingSemantics semantics = MissingSemantics::kMatch;

  size_t dimensionality() const { return terms.size(); }
  bool IsPointQuery() const;

  /// Debug rendering, e.g. "[match] 3 in [2,5] AND 7 in [1,1]".
  std::string ToString() const;
};

/// Validates a query against a table: attribute indexes in range, intervals
/// within [1, C_i], lo <= hi, no duplicate attributes.
Status ValidateQuery(const RangeQuery& query, const Table& table);

/// True iff `row` of `table` answers `query` under the query's semantics.
/// This predicate is the library-wide definition of correctness; every index
/// must agree with it exactly.
bool RowMatches(const Table& table, uint64_t row, const RangeQuery& query);

// Word kernels: the row predicates evaluated one 64-row word at a time,
// straight off a column's contiguous cells. They must agree bit for bit
// with the row oracles above and in expr.h. Rows [begin, end) map onto
// words [begin / 64, CeilDiv(end, 64)): out[i] is word begin / 64 + i, and
// its bit j is row (begin / 64 + i) * 64 + j. Every bit of a row outside
// [begin, end) is written zero. Only cells of rows in [begin, end) are
// read, so a reader may evaluate rows below its snapshot watermark while
// the writer appends.

/// Masks of one interval term: `in` has a bit per row whose cell lies in
/// `interval`, `missing` a bit per row whose cell is missing. Each array
/// holds CeilDiv(end, 64) - begin / 64 words.
void TermWords(const Column& column, Interval interval, uint64_t begin,
               uint64_t end, uint64_t* in, uint64_t* missing);

/// Word kernel of RowMatches: the conjunction ANDs each term's `in` mask
/// under missing-not-match and its `in | missing` mask under
/// missing-is-match.
void MatchWords(const Table& table, const RangeQuery& query, uint64_t begin,
                uint64_t end, uint64_t* out);

}  // namespace incdb

#endif  // INCDB_QUERY_QUERY_H_
