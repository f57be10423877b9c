#include "core/executor.h"

#include <algorithm>

#include "common/task_runner.h"
#include "common/timer.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/seq_scan.h"

namespace incdb {

namespace {

/// One workload query through the plan layer: lower the conjunctive query
/// into a bare-index probe tree, execute, count.
Result<uint64_t> RunOneQuery(const IncompleteIndex& index,
                             const RangeQuery& query, QueryStats* stats) {
  INCDB_ASSIGN_OR_RETURN(plan::PhysicalPlan plan,
                         plan::PlanRangeOverIndex(index, query));
  INCDB_ASSIGN_OR_RETURN(BitVector answer,
                         plan::ExecutePlanToBitVector(&plan, stats));
  return answer.Count();
}

}  // namespace

Result<WorkloadResult> RunWorkload(const IncompleteIndex& index,
                                   const std::vector<RangeQuery>& queries,
                                   uint64_t num_rows) {
  WorkloadResult result;
  result.index_name = index.Name();
  result.num_queries = queries.size();
  Timer timer;
  for (const RangeQuery& query : queries) {
    INCDB_ASSIGN_OR_RETURN(uint64_t matches,
                           RunOneQuery(index, query, &result.stats));
    result.total_matches += matches;
  }
  result.total_millis = timer.ElapsedMillis();
  if (!queries.empty() && num_rows > 0) {
    result.realized_selectivity =
        static_cast<double>(result.total_matches) /
        (static_cast<double>(queries.size()) * static_cast<double>(num_rows));
  }
  return result;
}

Result<WorkloadResult> RunWorkloadParallel(
    const IncompleteIndex& index, const std::vector<RangeQuery>& queries,
    uint64_t num_rows, size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareWorkers();
  num_threads = std::min(num_threads, std::max<size_t>(1, queries.size()));

  struct WorkerState {
    uint64_t matches = 0;
    QueryStats stats;
  };
  std::vector<WorkerState> workers(num_threads);
  auto run = [&](size_t worker, size_t q) -> Status {
    INCDB_ASSIGN_OR_RETURN(const uint64_t matches,
                           RunOneQuery(index, queries[q],
                                       &workers[worker].stats));
    workers[worker].matches += matches;
    return Status::OK();
  };

  Timer timer;
  INCDB_RETURN_IF_ERROR(RunTasks(queries.size(), num_threads, run));

  WorkloadResult result;
  result.index_name = index.Name();
  result.num_queries = queries.size();
  result.total_millis = timer.ElapsedMillis();
  for (const WorkerState& state : workers) {
    result.total_matches += state.matches;
    result.stats.MergeFrom(state.stats);
  }
  if (!queries.empty() && num_rows > 0) {
    result.realized_selectivity =
        static_cast<double>(result.total_matches) /
        (static_cast<double>(queries.size()) * static_cast<double>(num_rows));
  }
  return result;
}

Status VerifyAgainstOracle(const IncompleteIndex& index, const Table& table,
                           const std::vector<RangeQuery>& queries) {
  SequentialScan oracle(table);
  for (const RangeQuery& query : queries) {
    INCDB_ASSIGN_OR_RETURN(BitVector expected,
                           oracle.ExecuteToBitVector(query));
    INCDB_ASSIGN_OR_RETURN(BitVector actual, index.Execute(query, nullptr));
    if (!(expected == actual)) {
      // Locate the first differing row for the diagnostic.
      uint64_t bad_row = 0;
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        if (expected.Get(r) != actual.Get(r)) {
          bad_row = r;
          break;
        }
      }
      return Status::Internal(
          index.Name() + " disagrees with oracle on query '" +
          query.ToString() + "' at row " + std::to_string(bad_row) +
          " (oracle=" + (expected.Get(bad_row) ? "match" : "no-match") + ")");
    }
  }
  return Status::OK();
}

}  // namespace incdb
