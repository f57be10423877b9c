#include "query/expr.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

Truth TruthAnd(Truth a, Truth b) {
  if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
  if (a == Truth::kUnknown || b == Truth::kUnknown) return Truth::kUnknown;
  return Truth::kTrue;
}

Truth TruthOr(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kUnknown || b == Truth::kUnknown) return Truth::kUnknown;
  return Truth::kFalse;
}

Truth TruthNot(Truth a) {
  switch (a) {
    case Truth::kFalse:
      return Truth::kTrue;
    case Truth::kUnknown:
      return Truth::kUnknown;
    case Truth::kTrue:
      return Truth::kFalse;
  }
  return Truth::kUnknown;
}

std::string_view TruthToString(Truth truth) {
  switch (truth) {
    case Truth::kFalse:
      return "false";
    case Truth::kUnknown:
      return "unknown";
    case Truth::kTrue:
      return "true";
  }
  return "?";
}

struct QueryExpr::Node {
  Kind kind = Kind::kTerm;
  size_t attribute = 0;
  Interval interval;
  std::vector<QueryExpr> children;
};

QueryExpr QueryExpr::MakeTerm(size_t attribute, Interval interval) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kTerm;
  node->attribute = attribute;
  node->interval = interval;
  return QueryExpr(std::move(node));
}

QueryExpr QueryExpr::MakeAnd(std::vector<QueryExpr> children) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->children = std::move(children);
  return QueryExpr(std::move(node));
}

QueryExpr QueryExpr::MakeOr(std::vector<QueryExpr> children) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->children = std::move(children);
  return QueryExpr(std::move(node));
}

QueryExpr QueryExpr::MakeNot(QueryExpr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->children.push_back(std::move(child));
  return QueryExpr(std::move(node));
}

QueryExpr QueryExpr::FromRangeQuery(const RangeQuery& query) {
  std::vector<QueryExpr> terms;
  terms.reserve(query.terms.size());
  for (const QueryTerm& term : query.terms) {
    terms.push_back(MakeTerm(term.attribute, term.interval));
  }
  return MakeAnd(std::move(terms));
}

QueryExpr::Kind QueryExpr::kind() const { return node_->kind; }

size_t QueryExpr::attribute() const {
  INCDB_DCHECK(node_->kind == Kind::kTerm);
  return node_->attribute;
}

Interval QueryExpr::interval() const {
  INCDB_DCHECK(node_->kind == Kind::kTerm);
  return node_->interval;
}

const std::vector<QueryExpr>& QueryExpr::children() const {
  return node_->children;
}

Status QueryExpr::Validate(const Table& table) const {
  switch (node_->kind) {
    case Kind::kTerm: {
      if (node_->attribute >= table.num_attributes()) {
        return Status::OutOfRange("attribute index " +
                                  std::to_string(node_->attribute) +
                                  " out of range");
      }
      const uint32_t cardinality =
          table.schema().attribute(node_->attribute).cardinality;
      if (node_->interval.lo < 1 ||
          node_->interval.hi > static_cast<Value>(cardinality) ||
          node_->interval.lo > node_->interval.hi) {
        return Status::InvalidArgument(
            "interval [" + std::to_string(node_->interval.lo) + "," +
            std::to_string(node_->interval.hi) + "] invalid for cardinality " +
            std::to_string(cardinality));
      }
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr:
      if (node_->children.empty()) {
        return Status::InvalidArgument("AND/OR must have children");
      }
      for (const QueryExpr& child : node_->children) {
        INCDB_RETURN_IF_ERROR(child.Validate(table));
      }
      return Status::OK();
    case Kind::kNot:
      INCDB_DCHECK(node_->children.size() == 1);
      return node_->children.front().Validate(table);
  }
  return Status::Internal("unknown expression kind");
}

Truth QueryExpr::Evaluate(const Table& table, uint64_t row) const {
  switch (node_->kind) {
    case Kind::kTerm: {
      const Value v = table.Get(row, node_->attribute);
      if (IsMissing(v)) return Truth::kUnknown;
      return node_->interval.Contains(v) ? Truth::kTrue : Truth::kFalse;
    }
    case Kind::kAnd: {
      Truth acc = Truth::kTrue;
      for (const QueryExpr& child : node_->children) {
        acc = TruthAnd(acc, child.Evaluate(table, row));
        if (acc == Truth::kFalse) break;  // short-circuit
      }
      return acc;
    }
    case Kind::kOr: {
      Truth acc = Truth::kFalse;
      for (const QueryExpr& child : node_->children) {
        acc = TruthOr(acc, child.Evaluate(table, row));
        if (acc == Truth::kTrue) break;
      }
      return acc;
    }
    case Kind::kNot:
      return TruthNot(node_->children.front().Evaluate(table, row));
  }
  return Truth::kUnknown;
}

std::string QueryExpr::ToString() const {
  switch (node_->kind) {
    case Kind::kTerm: {
      std::string out = "A";
      out += std::to_string(node_->attribute);
      out += " in [";
      out += std::to_string(node_->interval.lo);
      out += ",";
      out += std::to_string(node_->interval.hi);
      out += "]";
      return out;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const char* joiner = node_->kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out += joiner;
        out += node_->children[i].ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "NOT " + node_->children.front().ToString();
  }
  return "?";
}

bool ExprMatches(const Table& table, uint64_t row, const QueryExpr& expr,
                 MissingSemantics semantics) {
  const Truth truth = expr.Evaluate(table, row);
  if (semantics == MissingSemantics::kMatch) {
    return truth != Truth::kFalse;  // possible answer
  }
  return truth == Truth::kTrue;  // certain answer
}

namespace {

/// Fills the T (`certain`) and P (`possible`) masks of `expr` over rows
/// [begin, end), `words` words each.
void KleeneWords(const Table& table, const QueryExpr& expr, uint64_t begin,
                 uint64_t end, size_t words, uint64_t* certain,
                 uint64_t* possible) {
  switch (expr.kind()) {
    case QueryExpr::Kind::kTerm:
      TermWords(table.column(expr.attribute()), expr.interval(), begin, end,
                certain, possible);
      for (size_t w = 0; w < words; ++w) possible[w] |= certain[w];
      return;
    case QueryExpr::Kind::kAnd:
    case QueryExpr::Kind::kOr: {
      // Start from the operator's identity (true for AND, false for OR).
      const bool is_and = expr.kind() == QueryExpr::Kind::kAnd;
      std::fill(certain, certain + words, is_and ? ~uint64_t{0} : 0);
      if (is_and) bitutil::ClearOutsideRange(begin, end, certain);
      std::copy(certain, certain + words, possible);
      std::vector<uint64_t> child_certain(words);
      std::vector<uint64_t> child_possible(words);
      for (const QueryExpr& child : expr.children()) {
        KleeneWords(table, child, begin, end, words, child_certain.data(),
                    child_possible.data());
        for (size_t w = 0; w < words; ++w) {
          if (is_and) {
            certain[w] &= child_certain[w];
            possible[w] &= child_possible[w];
          } else {
            certain[w] |= child_certain[w];
            possible[w] |= child_possible[w];
          }
        }
      }
      return;
    }
    case QueryExpr::Kind::kNot:
      KleeneWords(table, expr.children().front(), begin, end, words, certain,
                  possible);
      for (size_t w = 0; w < words; ++w) {
        const uint64_t child_certain = certain[w];
        certain[w] = ~possible[w];
        possible[w] = ~child_certain;
      }
      bitutil::ClearOutsideRange(begin, end, certain);
      bitutil::ClearOutsideRange(begin, end, possible);
      return;
  }
}

}  // namespace

void ExprMatchWords(const Table& table, const QueryExpr& expr,
                    MissingSemantics semantics, uint64_t begin, uint64_t end,
                    uint64_t* out) {
  if (begin >= end) return;
  const size_t words = bitutil::CeilDiv(end, 64) - begin / 64;
  std::vector<uint64_t> other(words);
  if (semantics == MissingSemantics::kMatch) {
    KleeneWords(table, expr, begin, end, words, other.data(), out);
  } else {
    KleeneWords(table, expr, begin, end, words, out, other.data());
  }
}

}  // namespace incdb
