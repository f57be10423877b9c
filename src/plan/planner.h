#ifndef INCDB_PLAN_PLANNER_H_
#define INCDB_PLAN_PLANNER_H_

#include "core/query_api.h"
#include "core/snapshot.h"
#include "plan/plan.h"
#include "query/expr.h"
#include "query/query.h"

namespace incdb {
namespace plan {

/// Lowers one request against a pinned snapshot into an executable
/// operator tree: resolves / parses / validates the predicate, routes by
/// predicted cost, and emits sink + index probes (or the scan fallback) +
/// the delta scan for rows the serving index does not cover. Every
/// QueryRequest shape — terms, expression, text, either semantics,
/// count-only or materializing, serial or parallel — lowers through here.
Result<PhysicalPlan> PlanRequest(const Snapshot& snapshot,
                                 const QueryRequest& request);

/// Bare-index planning (no snapshot, no sink): lowers a conjunctive range
/// query into the probe tree the workload executor runs. The plan's root is
/// the operator tree itself; execute with ExecutePlanToBitVector.
Result<PhysicalPlan> PlanRangeOverIndex(const IncompleteIndex& index,
                                        const RangeQuery& query);

/// Bare-index planning for a boolean expression: lowers AND/OR/NOT
/// structure onto single-component index probes (effective semantics per
/// leaf), collapsing pure conjunctions of distinct attributes into fused
/// native probes. ExecuteExpr is a thin caller of this.
Result<PhysicalPlan> PlanExprOverIndex(const IncompleteIndex& index,
                                       const QueryExpr& expr,
                                       MissingSemantics semantics);

/// Plans and executes one request against a pinned snapshot, packaging the
/// answer with routing decision, per-operator stats rolled up into
/// QueryResult::stats, snapshot identity, and (when the request asked for
/// it) the EXPLAIN rendering of the executed tree. This is the one
/// execution path under Database::Run, RunBatch, and the CLI.
Result<QueryResult> RunOnSnapshot(const Snapshot& snapshot,
                                  const QueryRequest& request);

}  // namespace plan

// RunOnSnapshot predates the plan layer and is used throughout
// tests/examples as an incdb:: name; keep it reachable there.
using plan::RunOnSnapshot;

}  // namespace incdb

#endif  // INCDB_PLAN_PLANNER_H_
