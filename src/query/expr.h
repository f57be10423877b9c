#ifndef INCDB_QUERY_EXPR_H_
#define INCDB_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// Three-valued (Kleene) truth value for predicates over incomplete data.
/// A term over a missing cell is kUnknown — it could be either way.
enum class Truth { kFalse, kUnknown, kTrue };

Truth TruthAnd(Truth a, Truth b);
Truth TruthOr(Truth a, Truth b);
Truth TruthNot(Truth a);
std::string_view TruthToString(Truth truth);

/// A boolean query expression over interval terms: AND / OR / NOT trees.
///
/// This generalizes the paper's conjunctive range queries and makes its two
/// query semantics principled for arbitrary boolean structure (the paper's
/// §4.2 discusses how NOT interacts with missing data):
///
///  * a term's truth on a row is kUnknown when the attribute is missing;
///  * AND/OR/NOT combine via Kleene logic;
///  * missing-is-match returns the *possible* answers (truth != kFalse);
///  * missing-not-match returns the *certain* answers (truth == kTrue).
///
/// For a pure conjunction of terms this reduces exactly to the paper's
/// RangeQuery semantics. Values are immutable and cheap to copy (shared
/// structure).
class QueryExpr {
 public:
  enum class Kind { kTerm, kAnd, kOr, kNot };

  /// Leaf: attribute `attribute` constrained to `interval`.
  static QueryExpr MakeTerm(size_t attribute, Interval interval);
  /// Conjunction / disjunction of one or more children.
  static QueryExpr MakeAnd(std::vector<QueryExpr> children);
  static QueryExpr MakeOr(std::vector<QueryExpr> children);
  /// Negation.
  static QueryExpr MakeNot(QueryExpr child);

  /// Lifts a conjunctive RangeQuery into an expression (semantics field of
  /// the query is ignored; semantics are chosen at evaluation time).
  static QueryExpr FromRangeQuery(const RangeQuery& query);

  Kind kind() const;
  /// Term accessors; only valid when kind() == kTerm.
  size_t attribute() const;
  Interval interval() const;
  /// Children; empty for terms, exactly one for kNot.
  const std::vector<QueryExpr>& children() const;

  /// Structural validation against a table: attributes in range, intervals
  /// inside domains, And/Or non-empty.
  Status Validate(const Table& table) const;

  /// Kleene evaluation of this expression on one row.
  Truth Evaluate(const Table& table, uint64_t row) const;

  /// e.g. "(A0 in [2,5] AND NOT A1 in [1,1])".
  std::string ToString() const;

 private:
  struct Node;
  explicit QueryExpr(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Row-level match predicate under the chosen semantics — the oracle
/// definition for boolean queries (possible vs certain answers).
bool ExprMatches(const Table& table, uint64_t row, const QueryExpr& expr,
                 MissingSemantics semantics);

/// Word kernel of ExprMatches over rows [begin, end); word layout as for
/// MatchWords (query.h). Every node yields two masks per word: T, the rows
/// where it is certainly true, and P, the rows where it is possibly true.
/// A term gives T = in and P = in | missing; AND and OR act on both masks;
/// NOT swaps them (T' = ~P, P' = ~T) and clears the bits outside the
/// range. The answer is P under missing-is-match, T under
/// missing-not-match.
void ExprMatchWords(const Table& table, const QueryExpr& expr,
                    MissingSemantics semantics, uint64_t begin, uint64_t end,
                    uint64_t* out);

}  // namespace incdb

#endif  // INCDB_QUERY_EXPR_H_
