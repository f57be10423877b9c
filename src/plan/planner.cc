#include "plan/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/slicer.h"
#include "plan/plan_executor.h"
#include "query/parser.h"
#include "query/selectivity.h"
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

int PreferenceRank(IndexKind kind, bool is_point) {
  const auto& preference = is_point ? kPointPreference : kRangePreference;
  int rank = 0;
  for (IndexKind candidate : preference) {
    if (candidate == kind) return rank;
    ++rank;
  }
  return rank;
}

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

/// Estimated equality-encoded bitvector accesses for a slot interval of
/// `width` over an axis of `slots`: the evaluator reads the smaller of the
/// inside/outside sides (Fig. 2), plus one for B_0 / the complement pass.
double EqualityProbes(double width, double slots) {
  return std::min(width, slots - width) + 1.0;
}

/// Exact bitmaps-touched count of the multi-component probe tree
/// (BitmapIndex::EvalMixedRadix), computed arithmetically from the
/// slicer's component structure — no dependence on C itself.
double MixedRadixProbes(const Slicer& slicer, size_t axis, uint64_t lo,
                        uint64_t hi) {
  const double slots = static_cast<double>(slicer.num_slots(axis));
  if (axis == 0) {
    return EqualityProbes(static_cast<double>(hi - lo + 1), slots);
  }
  const uint64_t div = slicer.axes()[axis].divisor;
  uint64_t d_lo = lo / div;
  uint64_t d_hi = hi / div;
  const uint64_t rem_lo = lo % div;
  const uint64_t rem_hi = hi % div;
  if (d_lo == d_hi) {
    return 1.0 + MixedRadixProbes(slicer, axis - 1, rem_lo, rem_hi);
  }
  double probes = 0.0;
  if (rem_lo != 0) {
    probes += 1.0 + MixedRadixProbes(slicer, axis - 1, rem_lo, div - 1);
    ++d_lo;
  }
  if (rem_hi != div - 1) {
    probes += 1.0 + MixedRadixProbes(slicer, axis - 1, 0, rem_hi);
    --d_hi;
  }
  if (d_lo <= d_hi) {
    probes += EqualityProbes(static_cast<double>(d_hi - d_lo + 1), slots);
  }
  return probes;
}

/// Exact bin count of the hierarchical segment-tree cover (<= 2 per level),
/// derived from the level structure alone.
double HierarchicalProbes(uint64_t lo, uint64_t hi) {
  double probes = 0.0;
  while (true) {
    if (lo > hi) break;
    if (lo == hi) {
      probes += 1.0;
      break;
    }
    if ((lo & 1) != 0) {
      probes += 1.0;
      ++lo;
    }
    if ((hi & 1) == 0) {
      probes += 1.0;
      --hi;
    }
    if (lo > hi) break;
    lo >>= 1;
    hi >>= 1;
  }
  return probes;
}

/// Predicted words touched when `kind` serves one conjunctive term list.
/// Bitmap kinds pay (bitvector accesses) x (words per full bitvector); the
/// VA-file pays the packed approximation scan plus selectivity-scaled exact
/// refinement; the scan pays one cell read per row per dimension.
double KindCost(const internal::SnapshotState& state, IndexKind kind,
                const std::vector<QueryTerm>& terms,
                MissingSemantics semantics, double estimated_selectivity) {
  const Schema& schema = state.table->schema();
  const double n = static_cast<double>(state.num_rows);
  const double bitvector_words = n / 31.0 * SimdWordCostFactor();
  // Under missing-is-match every dimension also reads the missing bitmap.
  const double missing_extra =
      semantics == MissingSemantics::kMatch ? 1.0 : 0.0;
  const double dims = static_cast<double>(std::max<size_t>(1, terms.size()));
  const double scan_cost = 0.5 * n * dims;
  switch (kind) {
    case IndexKind::kBitmapEquality: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        accesses += static_cast<double>(term.interval.Width()) + missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapRange: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        const bool one_sided =
            term.interval.lo == 1 ||
            term.interval.hi == static_cast<Value>(cardinality);
        accesses += (one_sided ? 1.0 : 2.0) + missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapInterval:
      return (2.0 + missing_extra) * dims * bitvector_words;
    case IndexKind::kBitmapBitSliced: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        accesses +=
            Log2Ceil(schema.attribute(term.attribute).cardinality) + 1.0;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapMultiComponent: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        if (term.interval.lo == 1 &&
            term.interval.hi == static_cast<Value>(cardinality)) {
          accesses += missing_extra;
          continue;
        }
        Result<Slicer> slicer =
            Slicer::Create(SlotScheme::kMultiComponent, cardinality);
        if (!slicer.ok()) {
          accesses += static_cast<double>(term.interval.Width());
          continue;
        }
        accesses += MixedRadixProbes(
                        slicer.value(), slicer.value().num_axes() - 1,
                        static_cast<uint64_t>(term.interval.lo) - 1,
                        static_cast<uint64_t>(term.interval.hi) - 1) +
                    missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kBitmapHierarchical: {
      double accesses = 0.0;
      for (const QueryTerm& term : terms) {
        const uint32_t cardinality =
            schema.attribute(term.attribute).cardinality;
        if (term.interval.lo == 1 &&
            term.interval.hi == static_cast<Value>(cardinality)) {
          accesses += missing_extra;
          continue;
        }
        accesses += HierarchicalProbes(
                        static_cast<uint64_t>(term.interval.lo) - 1,
                        static_cast<uint64_t>(term.interval.hi) - 1) +
                    missing_extra;
      }
      return accesses * bitvector_words;
    }
    case IndexKind::kVaFile:
    case IndexKind::kVaPlusFile: {
      double bits = 0.0;
      for (const QueryTerm& term : terms) {
        bits += Log2Ceil(schema.attribute(term.attribute).cardinality) + 1.0;
      }
      return n * bits / 64.0 + estimated_selectivity * scan_cost;
    }
    case IndexKind::kSequentialScan:
      return scan_cost;
  }
  return scan_cost;
}

bool TermsArePoint(const std::vector<QueryTerm>& terms) {
  for (const QueryTerm& term : terms) {
    if (!term.interval.IsPoint()) return false;
  }
  return true;
}

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
/// (predicted cost, preference rank) and returns the winner. Expressions
/// cost the same per leaf as conjunctive terms: the plan executor computes
/// one Kleene component per leaf (the effective semantics after NOT
/// parity), never the (possible, certain) pair.
Access ChooseAccess(const internal::SnapshotState& state, const QueryExpr& expr,
                    MissingSemantics semantics) {
  std::vector<QueryTerm> leaves;
  CollectLeafTerms(expr, &leaves);
  const bool is_point = TermsArePoint(leaves);
  const double selectivity = ExprSelectivity(state, expr, semantics);
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
    access.decision.estimated_cost = KindCost(
        state, segments.options.index_kind, leaves, semantics, selectivity);
    return access;
  }
  access.covered_rows = state.num_rows;
  access.decision.index_kind = IndexKind::kSequentialScan;
  access.decision.index_name = "SeqScan";
  access.decision.estimated_cost = KindCost(
      state, IndexKind::kSequentialScan, leaves, semantics, selectivity);
  int best_rank = PreferenceRank(IndexKind::kSequentialScan, is_point);
  const internal::SnapshotIndexEntry* best = nullptr;
  for (const internal::SnapshotIndexEntry& entry : *state.indexes) {
    const double cost =
        KindCost(state, entry.kind, leaves, semantics, selectivity);
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
/// attributes can collapse into one native index execution.
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

/// One probe over `parts`. Each segment's zone map is consulted here at plan
/// time: a pruned segment provably holds no row matching the probe's
/// effective semantics, so the executor never touches it and its zero bits
/// stand in for the exact leaf value.
std::unique_ptr<PlanNode> MakeProbe(const internal::SnapshotState* state,
                                    const std::vector<ProbePart>& parts,
                                    RangeQuery query) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kIndexProbe;
  node->parts = parts;
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
  const std::string name = parts.front().index->Name();
  if (parts.front().segment == nullptr) {
    node->label = "IndexProbe " + name + " " + node->probe.ToString();
  } else {
    node->label = "SegmentProbe " + name + " " + node->probe.ToString() +
                  " segs=" + std::to_string(parts.size() - pruned) + "/" +
                  std::to_string(parts.size());
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
                                   const QueryExpr& expr,
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
    node->scan_expr = expr;
    node->scan_semantics = semantics;
    node->estimated_selectivity = ExprSelectivity(state, expr, semantics);
    predicate = "[" + std::string(MissingSemanticsToString(semantics)) +
                "] " + expr.ToString();
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
Result<std::unique_ptr<PlanNode>> LowerExpr(
    const LeafFactory& make_leaf, const QueryExpr& expr,
    MissingSemantics effective, bool split_conjunctions) {
  std::vector<QueryTerm> conjunction;
  if (!split_conjunctions && IsPureConjunction(expr, &conjunction)) {
    RangeQuery query;
    query.terms = std::move(conjunction);
    query.semantics = effective;
    return make_leaf(std::move(query));
  }
  switch (expr.kind()) {
    case QueryExpr::Kind::kTerm: {
      RangeQuery query;
      query.terms = {{expr.attribute(), expr.interval()}};
      query.semantics = effective;
      return make_leaf(std::move(query));
    }
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

  // Resolve the predicate. A terms request lowers as its conjunction; only
  // its scans keep the terms form, for the MatchWords kernel.
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
    parsed = query.terms.size() == 1
                 ? QueryExpr::MakeTerm(query.terms[0].attribute,
                                       query.terms[0].interval)
                 : QueryExpr::FromRangeQuery(query);
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
  const QueryExpr& expr = *parsed;
  if (!terms.has_value()) {
    INCDB_RETURN_IF_ERROR(expr.Validate(table));
  }

  Access access = ChooseAccess(state, expr, request.semantics);
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
                                      terms, expr, request.semantics));
  } else {
    // A pure conjunction lowers to one fused probe; under a count-only
    // request whose probe covers every visible row of a snapshot with no
    // deletions it counts straight off compressed storage.
    std::vector<QueryTerm> conjunction;
    const bool count_direct = request.count_only &&
                              access.covered_rows == state.num_rows &&
                              state.num_deleted == 0 &&
                              IsPureConjunction(expr, &conjunction);
    // Any parallelism degree other than "exactly one thread" keeps a
    // registry plan's conjunctions split so leaf probes can run
    // concurrently; a segmented probe already has one task per segment.
    const bool split_conjunctions = request.parallelism != 1 &&
                                    !count_direct &&
                                    access.parts.front().segment == nullptr;
    const LeafFactory make_leaf = [&state, &access](RangeQuery query) {
      return MakeProbe(&state, access.parts, std::move(query));
    };
    INCDB_ASSIGN_OR_RETURN(
        std::unique_ptr<PlanNode> main,
        LowerExpr(make_leaf, expr, request.semantics, split_conjunctions));
    if (main->kind == OpKind::kIndexProbe) {
      main->count_direct = count_direct;
      access.decision.estimated_cost *= UnprunedFraction(*main);
    }
    sink->children.push_back(std::move(main));
    if (access.covered_rows < state.num_rows) {
      sink->children.push_back(MakeScan(state, OpKind::kDeltaScan,
                                        access.covered_rows, terms, expr,
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
