#include "plan/planner.h"

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "plan/cost.h"
#include "plan/plan_executor.h"
#include "query/parser.h"
#include "query/selectivity.h"

namespace incdb {
namespace plan {

namespace {

/// Predicted selectivity of one term (paper §5.3), using the snapshot's
/// actual missing rate for its attribute.
double TermSelectivity(const internal::SnapshotState& state,
                       const QueryTerm& term, MissingSemantics semantics) {
  const uint32_t cardinality =
      state.table->schema().attribute(term.attribute).cardinality;
  const double attribute_selectivity =
      static_cast<double>(term.interval.Width()) /
      static_cast<double>(cardinality);
  const double missing_rate =
      state.num_rows == 0
          ? 0.0
          : static_cast<double>(state.missing_counts[term.attribute]) /
                static_cast<double>(state.num_rows);
  return TermMatchProbability(attribute_selectivity, missing_rate, semantics);
}

/// Predicted global selectivity of a conjunctive term list.
double TermsSelectivity(const internal::SnapshotState& state,
                        const std::vector<QueryTerm>& terms,
                        MissingSemantics semantics) {
  double selectivity = 1.0;
  for (const QueryTerm& term : terms) {
    selectivity *= TermSelectivity(state, term, semantics);
  }
  return selectivity;
}

/// Kleene-structure estimate for a boolean expression: terms via the §5.3
/// model, AND multiplies, OR complements-and-multiplies, NOT approximated
/// as the complement (exact only for two-valued rows).
double ExprSelectivity(const internal::SnapshotState& state,
                       const QueryExpr& expr, MissingSemantics semantics) {
  switch (expr.kind()) {
    case QueryExpr::Kind::kTerm:
      return TermSelectivity(state, {expr.attribute(), expr.interval()},
                             semantics);
    case QueryExpr::Kind::kAnd: {
      double p = 1.0;
      for (const QueryExpr& child : expr.children()) {
        p *= ExprSelectivity(state, child, semantics);
      }
      return p;
    }
    case QueryExpr::Kind::kOr: {
      double q = 1.0;
      for (const QueryExpr& child : expr.children()) {
        q *= 1.0 - ExprSelectivity(state, child, semantics);
      }
      return 1.0 - q;
    }
    case QueryExpr::Kind::kNot:
      return 1.0 - ExprSelectivity(state, expr.children().front(), semantics);
  }
  return 1.0;
}

void CollectLeafTerms(const QueryExpr& expr, std::vector<QueryTerm>* out) {
  if (expr.kind() == QueryExpr::Kind::kTerm) {
    out->push_back({expr.attribute(), expr.interval()});
    return;
  }
  for (const QueryExpr& child : expr.children()) {
    CollectLeafTerms(child, out);
  }
}

/// The one part of a registry or bare-index probe: the whole index, in the
/// global row space.
std::vector<ProbePart> WholeIndex(const IncompleteIndex& index) {
  std::vector<ProbePart> parts(1);
  parts[0].index = &index;
  return parts;
}

/// Where a request's probes run, with the routing decision that picked it.
struct Access {
  /// The parts every index probe of the plan runs on (ProbePart): the
  /// sealed segments, or one registry index; empty for the scan.
  std::vector<ProbePart> parts;
  /// Rows the main tree's output covers; the rest is the delta scan's.
  uint64_t covered_rows = 0;
  RoutingDecision decision;
};

/// The sealed segments when there are any: every segment carries its own
/// index, so the per-segment grid is both the access path and the parallel
/// morsel grid. Otherwise ranks every registered index plus the scan by
/// (KindCost, PreferenceRank) over the request's leaf terms and returns the
/// winner. Expressions cost the same per leaf as conjunctive terms: the
/// plan executor computes one Kleene component per leaf (the effective
/// semantics after NOT parity), never the (possible, certain) pair.
Access ChooseAccess(const internal::SnapshotState& state,
                    const std::vector<QueryTerm>& leaves, double selectivity,
                    MissingSemantics semantics) {
  const Schema& schema = state.table->schema();
  const bool is_point = TermsArePoint(leaves);
  Access access;
  access.decision.is_point_query = is_point;
  access.decision.estimated_selectivity = selectivity;
  if (state.segments != nullptr && !state.segments->segments.empty()) {
    const internal::SegmentList& segments = *state.segments;
    for (const auto& segment : segments.segments) {
      ProbePart part;
      part.index = segment->index.get();
      part.segment = segment.get();
      access.parts.push_back(std::move(part));
    }
    access.covered_rows = segments.sealed_rows;
    access.decision.index_kind = segments.options.index_kind;
    access.decision.index_name =
        "SEG[" + segments.segments.front()->index->Name() + "]";
    access.decision.estimated_cost =
        KindCost(schema, state.missing_counts, state.num_rows,
                 segments.options.index_kind, leaves, semantics, selectivity);
    return access;
  }
  access.covered_rows = state.num_rows;
  access.decision.index_kind = IndexKind::kSequentialScan;
  access.decision.index_name = "SeqScan";
  access.decision.estimated_cost =
      KindCost(schema, state.missing_counts, state.num_rows,
               IndexKind::kSequentialScan, leaves, semantics, selectivity);
  int best_rank = PreferenceRank(IndexKind::kSequentialScan, is_point);
  const internal::SnapshotIndexEntry* best = nullptr;
  for (const internal::SnapshotIndexEntry& entry : *state.indexes) {
    const double cost = KindCost(schema, state.missing_counts, state.num_rows,
                                 entry.kind, leaves, semantics, selectivity);
    const int rank = PreferenceRank(entry.kind, is_point);
    if (cost < access.decision.estimated_cost ||
        (cost == access.decision.estimated_cost && rank < best_rank)) {
      best = &entry;
      access.decision.estimated_cost = cost;
      best_rank = rank;
    }
  }
  if (best != nullptr) {
    access.parts = WholeIndex(*best->index);
    access.covered_rows = best->covered_rows;
    access.decision.index_kind = best->kind;
    access.decision.index_name = best->index->Name();
  }
  return access;
}

MissingSemantics FlipSemantics(MissingSemantics semantics) {
  return semantics == MissingSemantics::kMatch ? MissingSemantics::kNoMatch
                                               : MissingSemantics::kMatch;
}

/// A fused multi-term probe under either Kleene component equals the AND of
/// its single-term probes, so a conjunction of terms over distinct
/// attributes can collapse into one native index execution. On success
/// `terms` holds the conjunction's terms, which are also its leaves.
bool IsPureConjunction(const QueryExpr& expr, std::vector<QueryTerm>* terms) {
  if (expr.kind() == QueryExpr::Kind::kTerm) {
    terms->push_back({expr.attribute(), expr.interval()});
    return true;
  }
  if (expr.kind() != QueryExpr::Kind::kAnd) return false;
  for (const QueryExpr& child : expr.children()) {
    if (child.kind() != QueryExpr::Kind::kTerm) return false;
    terms->push_back({child.attribute(), child.interval()});
  }
  for (size_t i = 0; i < terms->size(); ++i) {
    for (size_t j = i + 1; j < terms->size(); ++j) {
      if ((*terms)[i].attribute == (*terms)[j].attribute) return false;
    }
  }
  return !terms->empty();
}

/// The probe query for `terms` under the effective `semantics`.
RangeQuery Conjunction(std::vector<QueryTerm> terms,
                       MissingSemantics semantics) {
  RangeQuery query;
  query.terms = std::move(terms);
  query.semantics = semantics;
  return query;
}

/// One probe over `parts`. Each segment's zone map is consulted here at plan
/// time: a pruned segment provably holds no row matching the probe's
/// effective semantics, so the executor never touches it and its zero bits
/// stand in for the exact leaf value.
std::unique_ptr<PlanNode> MakeProbe(const internal::SnapshotState* state,
                                    std::vector<ProbePart> parts,
                                    RangeQuery query) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kIndexProbe;
  node->parts = std::move(parts);
  node->probe = std::move(query);
  uint64_t pruned = 0;
  for (ProbePart& part : node->parts) {
    part.pruned = part.segment != nullptr &&
                  internal::SegmentPrunedByZones(*part.segment, node->probe);
    if (part.pruned) ++pruned;
  }
  if (state != nullptr) {
    node->estimated_selectivity =
        TermsSelectivity(*state, node->probe.terms, node->probe.semantics);
  }
  const ProbePart& first = node->parts.front();
  const std::string name = first.index->Name();
  if (first.segment == nullptr) {
    node->label = "IndexProbe " + name + " " + node->probe.ToString();
  } else {
    node->label = "SegmentProbe " + name + " " + node->probe.ToString() +
                  " segs=" + std::to_string(node->parts.size() - pruned) +
                  "/" + std::to_string(node->parts.size());
  }
  return node;
}

/// Fraction of the probe's parts it will actually touch — scales the
/// routing cost estimate so EXPLAIN reflects zone-map savings.
double UnprunedFraction(const PlanNode& probe) {
  uint64_t unpruned = 0;
  for (const ProbePart& part : probe.parts) {
    if (!part.pruned) ++unpruned;
  }
  return static_cast<double>(unpruned) /
         static_cast<double>(probe.parts.size());
}

/// A scan over the visible rows [begin, num_rows). A terms request keeps
/// its terms form (the MatchWords kernel); any other scans its expression.
std::unique_ptr<PlanNode> MakeScan(const internal::SnapshotState& state,
                                   OpKind kind, uint64_t begin,
                                   const std::optional<RangeQuery>& terms,
                                   const std::optional<QueryExpr>& expr,
                                   MissingSemantics semantics) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->table = state.table.get();
  node->begin_row = begin;
  node->end_row = state.num_rows;
  std::string predicate;
  if (terms.has_value()) {
    node->scan_query = *terms;
    node->estimated_selectivity =
        TermsSelectivity(state, terms->terms, terms->semantics);
    predicate = terms->ToString();
  } else {
    node->scan_expr = *expr;
    node->scan_semantics = semantics;
    node->estimated_selectivity = ExprSelectivity(state, *expr, semantics);
    predicate = "[" + std::string(MissingSemanticsToString(semantics)) +
                "] " + expr->ToString();
  }
  node->label = std::string(OpKindToString(kind)) + " rows [" +
                std::to_string(begin) + "," + std::to_string(state.num_rows) +
                ") " + predicate;
  return node;
}

/// Builds one leaf node for a RangeQuery whose semantics field already
/// carries the effective semantics.
using LeafFactory = std::function<std::unique_ptr<PlanNode>(RangeQuery)>;

/// Lowers a boolean expression onto index probes, computing the single
/// Kleene component `effective` asks for: kTerm probes under the effective
/// semantics, kAnd/kOr combine children under the same component, kNot
/// flips the component its child computes and complements the result
/// (possible(NOT e) = NOT certain(e) and vice versa). With
/// `split_conjunctions`, conjunctions stay And-of-probes so the executor
/// can evaluate the probes concurrently; otherwise pure conjunctions of
/// distinct attributes collapse into one fused native probe.
Result<std::unique_ptr<PlanNode>> LowerExpr(const LeafFactory& make_leaf,
                                            const QueryExpr& expr,
                                            MissingSemantics effective,
                                            bool split_conjunctions);

/// LowerExpr past its fusion test: lowers `expr`'s own operator, and its
/// children through LowerExpr. A caller that has already found `expr` not
/// to fuse starts here.
Result<std::unique_ptr<PlanNode>> LowerOperator(const LeafFactory& make_leaf,
                                                const QueryExpr& expr,
                                                MissingSemantics effective,
                                                bool split_conjunctions) {
  switch (expr.kind()) {
    case QueryExpr::Kind::kTerm:
      return make_leaf(
          Conjunction({{expr.attribute(), expr.interval()}}, effective));
    case QueryExpr::Kind::kAnd:
    case QueryExpr::Kind::kOr: {
      if (expr.children().empty()) {
        return Status::InvalidArgument("AND/OR must have children");
      }
      auto node = std::make_unique<PlanNode>();
      const bool is_and = expr.kind() == QueryExpr::Kind::kAnd;
      node->kind = is_and ? OpKind::kAnd : OpKind::kOr;
      double p = 1.0;
      bool have_estimate = true;
      for (const QueryExpr& child : expr.children()) {
        INCDB_ASSIGN_OR_RETURN(
            std::unique_ptr<PlanNode> lowered,
            LowerExpr(make_leaf, child, effective, split_conjunctions));
        const double child_p = lowered->estimated_selectivity;
        if (child_p < 0.0) have_estimate = false;
        p *= is_and ? child_p : 1.0 - child_p;
        node->children.push_back(std::move(lowered));
      }
      if (have_estimate) node->estimated_selectivity = is_and ? p : 1.0 - p;
      node->label = OpKindToString(node->kind);
      return node;
    }
    case QueryExpr::Kind::kNot: {
      auto node = std::make_unique<PlanNode>();
      node->kind = OpKind::kNot;
      INCDB_ASSIGN_OR_RETURN(
          std::unique_ptr<PlanNode> child,
          LowerExpr(make_leaf, expr.children().front(),
                    FlipSemantics(effective), split_conjunctions));
      if (child->estimated_selectivity >= 0.0) {
        node->estimated_selectivity = 1.0 - child->estimated_selectivity;
      }
      node->label = "Not";
      node->children.push_back(std::move(child));
      return node;
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<std::unique_ptr<PlanNode>> LowerExpr(const LeafFactory& make_leaf,
                                            const QueryExpr& expr,
                                            MissingSemantics effective,
                                            bool split_conjunctions) {
  std::vector<QueryTerm> conjunction;
  if (!split_conjunctions && IsPureConjunction(expr, &conjunction)) {
    return make_leaf(Conjunction(std::move(conjunction), effective));
  }
  return LowerOperator(make_leaf, expr, effective, split_conjunctions);
}

}  // namespace

Result<PhysicalPlan> PlanRequest(const Snapshot& snapshot,
                                 const QueryRequest& request) {
  if (!snapshot.valid()) {
    return Status::InvalidArgument("invalid (default-constructed) snapshot");
  }
  // The request-level contract (non-empty predicate, ordered intervals, no
  // conflicting flags) is checked here for every in-process caller; the
  // serving daemon additionally checks it at wire decode so a malformed
  // request never even reaches the planner's queue slot.
  INCDB_RETURN_IF_ERROR(request.Validate());
  const internal::SnapshotState& state = snapshot.state();
  const Table& table = *state.table;

  // Resolve the predicate. A terms request keeps its resolved terms: they
  // are its leaves, its conjunction (ValidateQuery rejects a repeated
  // attribute) and its scans' MatchWords form. It builds an expression only
  // to lower split conjunctions.
  std::optional<RangeQuery> terms;
  std::optional<QueryExpr> parsed;
  if (request.shape == QueryRequest::Shape::kTerms) {
    RangeQuery query;
    query.semantics = request.semantics;
    for (const NamedTerm& term : request.terms) {
      INCDB_ASSIGN_OR_RETURN(QueryTerm resolved,
                             ResolveNamedTerm(table, term));
      query.terms.push_back(resolved);
    }
    INCDB_RETURN_IF_ERROR(ValidateQuery(query, table));
    terms = std::move(query);
  } else if (request.shape == QueryRequest::Shape::kText) {
    auto parse_result = ParseQuery(request.text, table);
    if (!parse_result.ok()) return parse_result.status();
    parsed = std::move(parse_result).value();
  } else {
    if (!request.expression.has_value()) {
      return Status::InvalidArgument(
          "expression request carries no expression");
    }
    parsed = *request.expression;
  }

  // Test for a pure conjunction once; its terms are then also the leaves
  // the router prices.
  bool pure_conjunction = true;
  std::vector<QueryTerm> expr_leaves;
  double selectivity = 0.0;
  if (terms.has_value()) {
    selectivity = TermsSelectivity(state, terms->terms, request.semantics);
  } else {
    INCDB_RETURN_IF_ERROR(parsed->Validate(table));
    pure_conjunction = IsPureConjunction(*parsed, &expr_leaves);
    if (!pure_conjunction) {
      expr_leaves.clear();
      CollectLeafTerms(*parsed, &expr_leaves);
    }
    selectivity = ExprSelectivity(state, *parsed, request.semantics);
  }
  const std::vector<QueryTerm>& leaves =
      terms.has_value() ? terms->terms : expr_leaves;

  Access access = ChooseAccess(state, leaves, selectivity, request.semantics);
  PhysicalPlan plan;
  plan.state = &state;
  plan.semantics = request.semantics;
  plan.count_only = request.count_only;
  plan.limit = request.limit;
  plan.visible_rows = state.num_rows;
  plan.covered_rows = access.covered_rows;

  auto sink = std::make_unique<PlanNode>();
  sink->kind =
      request.count_only ? OpKind::kCountSink : OpKind::kMaterializeSink;
  sink->estimated_selectivity = access.decision.estimated_selectivity;
  sink->label = OpKindToString(sink->kind);
  if (access.parts.empty()) {
    sink->children.push_back(MakeScan(state, OpKind::kSeqScanFallback, 0,
                                      terms, parsed, request.semantics));
  } else {
    // A pure conjunction lowers to one fused probe; under a count-only
    // request whose probe covers every visible row of a snapshot with no
    // deletions it counts straight off compressed storage.
    const bool count_direct = request.count_only &&
                              access.covered_rows == state.num_rows &&
                              state.num_deleted == 0 && pure_conjunction;
    // Any parallelism degree other than "exactly one thread" keeps a
    // registry plan's conjunctions split so leaf probes can run
    // concurrently; a segmented probe already has one task per segment.
    const bool split_conjunctions = request.parallelism != 1 &&
                                    !count_direct &&
                                    access.parts.front().segment == nullptr;
    std::unique_ptr<PlanNode> main;
    if (pure_conjunction && !split_conjunctions) {
      main = MakeProbe(&state, std::move(access.parts),
                       Conjunction(leaves, request.semantics));
      main->count_direct = count_direct;
    } else {
      if (!parsed.has_value()) {
        parsed = terms->terms.size() == 1
                     ? QueryExpr::MakeTerm(terms->terms[0].attribute,
                                           terms->terms[0].interval)
                     : QueryExpr::FromRangeQuery(*terms);
      }
      const LeafFactory make_leaf = [&state, &access](RangeQuery query) {
        return MakeProbe(&state, access.parts, std::move(query));
      };
      INCDB_ASSIGN_OR_RETURN(main,
                             LowerOperator(make_leaf, *parsed,
                                           request.semantics,
                                           split_conjunctions));
    }
    if (main->kind == OpKind::kIndexProbe) {
      access.decision.estimated_cost *= UnprunedFraction(*main);
    }
    sink->children.push_back(std::move(main));
    if (access.covered_rows < state.num_rows) {
      sink->children.push_back(MakeScan(state, OpKind::kDeltaScan,
                                        access.covered_rows, terms, parsed,
                                        request.semantics));
    }
  }
  plan.routing = std::move(access.decision);
  plan.root = std::move(sink);
  return plan;
}

Result<PhysicalPlan> PlanRangeOverIndex(const IncompleteIndex& index,
                                        const RangeQuery& query) {
  PhysicalPlan plan;
  plan.semantics = query.semantics;
  plan.root = MakeProbe(nullptr, WholeIndex(index), query);
  return plan;
}

Result<PhysicalPlan> PlanExprOverIndex(const IncompleteIndex& index,
                                       const QueryExpr& expr,
                                       MissingSemantics semantics) {
  PhysicalPlan plan;
  plan.semantics = semantics;
  const std::vector<ProbePart> parts = WholeIndex(index);
  const LeafFactory make_leaf = [&parts](RangeQuery query) {
    return MakeProbe(nullptr, parts, std::move(query));
  };
  INCDB_ASSIGN_OR_RETURN(plan.root,
                         LowerExpr(make_leaf, expr, semantics,
                                   /*split_conjunctions=*/false));
  return plan;
}

Result<QueryResult> RunOnSnapshot(const Snapshot& snapshot,
                                  const QueryRequest& request) {
  INCDB_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanRequest(snapshot, request));
  ExecOptions options;
  options.num_threads = request.parallelism;
  if (request.deadline_millis != 0) {
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(request.deadline_millis);
  }
  INCDB_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(&plan, options));
  result.routing = plan.routing;
  result.chosen_index = plan.routing.index_name;
  result.epoch = snapshot.epoch();
  result.visible_rows = snapshot.num_rows();
  if (request.explain) result.explain = ExplainPlan(plan);
  return result;
}

}  // namespace plan
}  // namespace incdb
