#include "plan/plan_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/task_runner.h"
#include "common/thread_annotations.h"

namespace incdb {
namespace plan {

namespace {

/// One unit of parallel leaf work: one part of an index probe, or one
/// morsel of a scan operator's row range. Tasks never share mutable state —
/// each has its own stats/status slot, probe tasks own their part's output,
/// and scan morsels are word-aligned so concurrent Set calls touch disjoint
/// words of the shared output bitvector.
struct LeafTask {
  PlanNode* node = nullptr;
  /// A probe task's part ordinal, or a scan morsel's first row.
  uint64_t begin = 0;
  uint64_t end = 0;
  QueryStats stats;
  Status status = Status::OK();
};

bool IsScan(OpKind kind) {
  return kind == OpKind::kDeltaScan || kind == OpKind::kSeqScanFallback;
}

bool IsSink(OpKind kind) {
  return kind == OpKind::kCountSink || kind == OpKind::kMaterializeSink;
}

uint64_t CountExprLeaves(const QueryExpr& expr) {
  if (expr.kind() == QueryExpr::Kind::kTerm) return 1;
  uint64_t leaves = 0;
  for (const QueryExpr& child : expr.children()) {
    leaves += CountExprLeaves(child);
  }
  return leaves;
}

/// Walks the tree, allocates scan outputs, and emits the leaf task list.
/// The morsel grid is anchored at row 0 with a word-aligned pitch, so the
/// partitioning (and therefore the merged per-node stats) is identical for
/// serial and parallel runs, and no two morsels share a 64-bit output word.
Status CollectTasks(PlanNode* node, uint64_t morsel_rows,
                    std::vector<LeafTask>* tasks) {
  if (node->kind == OpKind::kIndexProbe) {
    if (node->count_direct) {
      return Status::Internal("count_direct probe reached the task list");
    }
    if (node->parts.empty()) {
      return Status::Internal("index probe carries no parts");
    }
    // One leaf task per unpruned part — for a segmented probe the segment
    // grid *is* the morsel grid, so the partitioning is identical for
    // serial and parallel runs.
    uint64_t morsels = 0;
    for (size_t p = 0; p < node->parts.size(); ++p) {
      if (node->parts[p].pruned) continue;
      LeafTask task;
      task.node = node;
      task.begin = p;
      tasks->push_back(std::move(task));
      ++morsels;
    }
    node->realized.morsels = morsels;
    return Status::OK();
  }
  if (IsScan(node->kind)) {
    if (node->table == nullptr) {
      return Status::Internal("scan operator carries no table");
    }
    node->output = BitVector(node->end_row);
    const uint64_t pitch = std::max<uint64_t>(64, (morsel_rows + 63) / 64 * 64);
    uint64_t morsels = 0;
    for (uint64_t g = node->begin_row / pitch; g * pitch < node->end_row; ++g) {
      LeafTask task;
      task.node = node;
      task.begin = std::max(node->begin_row, g * pitch);
      task.end = std::min(node->end_row, (g + 1) * pitch);
      if (task.begin >= task.end) continue;
      tasks->push_back(std::move(task));
      ++morsels;
    }
    node->realized.morsels = morsels;
    return Status::OK();
  }
  if (IsSink(node->kind)) {
    return Status::Internal("nested sink in plan tree");
  }
  for (const std::unique_ptr<PlanNode>& child : node->children) {
    INCDB_RETURN_IF_ERROR(CollectTasks(child.get(), morsel_rows, tasks));
  }
  return Status::OK();
}

/// Runs one leaf task. Requires the execution phase *shared*: any number of
/// workers may run tasks concurrently (each owns its claimed task's slots
/// and writes disjoint output words), but none may touch the cross-task
/// realized stats — that needs the phase exclusively (see MergeTaskStats).
/// The phase role is a compile-time protocol marker (ThreadRole, zero
/// runtime cost); cross-thread exclusion itself is delivered by the atomic
/// task claim + join and checked by TSan.
void RunTask(LeafTask* task, ThreadRole& phase) INCDB_REQUIRES_SHARED(phase) {
  (void)phase;
  PlanNode& node = *task->node;
  if (node.kind == OpKind::kIndexProbe) {
    // The part's result, in the part's own row space, lands in its private
    // output slot; a segment's is spliced to its global offset in the
    // combine phase.
    ProbePart& part = node.parts[task->begin];
    auto result = part.index->Execute(node.probe, &task->stats);
    if (!result.ok()) {
      task->status = result.status();
      return;
    }
    part.output = std::move(result).value();
    return;
  }
  // Scan morsel: the word kernels (query.h, expr.h) evaluate [begin, end)
  // a column and a 64-row word at a time, and the morsel ORs its whole
  // words into the output (morsels never share a word). Charges one
  // rows_scanned unit per row and one words_touched unit per cell the
  // predicate can read, so the tail's cost shows up in QueryStats like
  // probe traffic does.
  const uint64_t cells_per_row =
      node.scan_expr.has_value()
          ? CountExprLeaves(*node.scan_expr)
          : static_cast<uint64_t>(node.scan_query.terms.size());
  const uint64_t first_row = task->begin / 64 * 64;
  std::vector<uint64_t> words(bitutil::CeilDiv(task->end, 64) -
                              first_row / 64);
  if (node.scan_expr.has_value()) {
    ExprMatchWords(*node.table, *node.scan_expr, node.scan_semantics,
                   task->begin, task->end, words.data());
  } else {
    MatchWords(*node.table, node.scan_query, task->begin, task->end,
               words.data());
  }
  auto morsel = BitVector::FromWords(task->end - first_row, std::move(words));
  if (!morsel.ok()) {
    task->status = morsel.status();
    return;
  }
  node.output.OrAt(*morsel, first_row);
  task->stats.rows_scanned += task->end - task->begin;
  task->stats.words_touched += (task->end - task->begin) * cells_per_row;
}

/// Deterministic post-join merge: task order is plan order regardless of
/// which worker ran what, so serial and parallel runs report identical
/// stats. Requires the execution phase *exclusively* — the compiler rejects
/// a merge that could still race the workers.
Status MergeTaskStats(std::vector<LeafTask>* tasks, ThreadRole& phase)
    INCDB_REQUIRES(phase) {
  (void)phase;
  for (LeafTask& task : *tasks) {
    INCDB_RETURN_IF_ERROR(task.status);
    task.node->realized.stats.MergeFrom(task.stats);
  }
  return Status::OK();
}

/// True when `deadline` is armed and already past. One clock read per call;
/// callers invoke it once per leaf task (morsel boundary), so the cost is
/// amortized over tens of thousands of rows.
bool DeadlinePassed(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

/// Runs every leaf task on `num_threads` workers (0 = one per hardware
/// thread) through the common task runner, then merges their stats.
Status RunLeafTasks(std::vector<LeafTask>* tasks, size_t num_threads,
                    std::chrono::steady_clock::time_point deadline) {
  // Two-phase worker coordination, made visible to the thread-safety
  // analysis: workers hold `phase` shared while executing leaf tasks; the
  // coordinator takes it exclusively (only after join) for the stats merge.
  ThreadRole phase;
  // Cooperative cancellation: each task re-checks the deadline before it
  // runs. The first expiry observation fails every later task at once;
  // tasks already running finish (their output is then discarded with the
  // whole query).
  std::atomic<bool> expired{false};
  const Status run = RunTasks(
      tasks->size(), num_threads == 0 ? HardwareWorkers() : num_threads,
      [&](size_t, size_t i) -> Status {
        if (expired.load(std::memory_order_relaxed) ||
            DeadlinePassed(deadline)) {
          expired.store(true, std::memory_order_relaxed);
          return Status::DeadlineExceeded(
              "query deadline expired at a morsel boundary (" +
              std::to_string(tasks->size()) + " leaf tasks planned)");
        }
        phase.AcquireShared();
        RunTask(&(*tasks)[i], phase);
        phase.ReleaseShared();
        return Status::OK();
      });
  INCDB_RETURN_IF_ERROR(run);
  phase.Acquire();
  const Status merged = MergeTaskStats(tasks, phase);
  phase.Release();
  return merged;
}

void FinalizeNode(PlanNode* node, const BitVector& out) {
  node->realized.executed = true;
  node->realized.output_rows = out.Count();
  node->realized.rows_scanned = node->realized.stats.rows_scanned;
  const uint64_t range = IsScan(node->kind)
                             ? node->end_row - node->begin_row
                             : out.size();
  node->realized.realized_selectivity =
      range == 0 ? 0.0
                 : static_cast<double>(node->realized.output_rows) /
                       static_cast<double>(range);
}

/// Bottom-up combine of the already-evaluated leaves. Runs on one thread;
/// internal nodes charge their own bitvector_ops / words_touched so EXPLAIN
/// attributes the merge cost to the operator that incurred it.
Result<BitVector> Combine(PlanNode* node) {
  switch (node->kind) {
    case OpKind::kDeltaScan:
    case OpKind::kSeqScanFallback: {
      FinalizeNode(node, node->output);
      return std::move(node->output);
    }
    case OpKind::kIndexProbe: {
      // A global part's result already is the probe's output.
      if (node->parts.front().segment == nullptr) {
        BitVector out = std::move(node->parts.front().output);
        FinalizeNode(node, out);
        return out;
      }
      // Splice the per-segment local results to their global row offsets,
      // in segment order — bit-identical regardless of which worker probed
      // which segment. Pruned segments contribute their exact all-zero
      // value for free.
      BitVector merged(node->parts.back().segment->end_row());
      for (ProbePart& part : node->parts) {
        const internal::Segment& seg = *part.segment;
        if (part.pruned) {
          node->realized.stats.segments_pruned += 1;
          continue;
        }
        if (part.output.size() != seg.num_rows) {
          return Status::Internal(
              "segment " + std::to_string(seg.content_id) + " returned " +
              std::to_string(part.output.size()) + " rows, expected " +
              std::to_string(seg.num_rows));
        }
        merged.OrAt(part.output, seg.begin_row);
        node->realized.stats.segments_scanned += 1;
        node->realized.stats.bitvector_ops += 1;
        node->realized.stats.words_touched += part.output.words().size();
        part.output = BitVector();
      }
      FinalizeNode(node, merged);
      return merged;
    }
    case OpKind::kAnd:
    case OpKind::kOr: {
      if (node->children.empty()) {
        return Status::Internal("And/Or node without children");
      }
      INCDB_ASSIGN_OR_RETURN(BitVector acc,
                             Combine(node->children.front().get()));
      for (size_t i = 1; i < node->children.size(); ++i) {
        INCDB_ASSIGN_OR_RETURN(BitVector operand,
                               Combine(node->children[i].get()));
        if (operand.size() != acc.size()) {
          return Status::Internal(
              "plan operand size mismatch: " + std::to_string(acc.size()) +
              " vs " + std::to_string(operand.size()));
        }
        if (node->kind == OpKind::kAnd) {
          acc.AndWith(operand);
        } else {
          acc.OrWith(operand);
        }
        node->realized.stats.bitvector_ops += 1;
        node->realized.stats.words_touched +=
            acc.words().size() + operand.words().size();
      }
      FinalizeNode(node, acc);
      return acc;
    }
    case OpKind::kNot: {
      INCDB_ASSIGN_OR_RETURN(BitVector out,
                             Combine(node->children.front().get()));
      out.Flip();
      node->realized.stats.bitvector_ops += 1;
      node->realized.stats.words_touched += out.words().size();
      FinalizeNode(node, out);
      return out;
    }
    case OpKind::kCountSink:
    case OpKind::kMaterializeSink:
      return Status::Internal("sink reached the combine phase");
  }
  return Status::Internal("unknown plan operator");
}

QueryStats AggregateStats(const PlanNode& node) {
  QueryStats stats = node.realized.stats;
  for (const std::unique_ptr<PlanNode>& child : node.children) {
    stats.MergeFrom(AggregateStats(*child));
  }
  return stats;
}

/// Strips logically deleted rows from a result sized to the watermark.
void StripDeleted(const internal::SnapshotState* state, BitVector* result) {
  if (state == nullptr || state->num_deleted == 0 ||
      state->deleted == nullptr) {
    return;
  }
  BitVector live = *state->deleted;
  live.Resize(result->size());
  live.Flip();
  result->AndWith(live);
}

void FinalizeSink(PlanNode* sink, uint64_t count, uint64_t visible_rows) {
  sink->realized.executed = true;
  sink->realized.output_rows = count;
  sink->realized.realized_selectivity =
      visible_rows == 0 ? 0.0
                        : static_cast<double>(count) /
                              static_cast<double>(visible_rows);
}

}  // namespace

Result<QueryResult> ExecutePlan(PhysicalPlan* plan,
                                const ExecOptions& options) {
  if (plan == nullptr || plan->root == nullptr) {
    return Status::Internal("empty physical plan");
  }
  PlanNode* sink = plan->root.get();
  if (!IsSink(sink->kind) || sink->children.empty()) {
    return Status::Internal("snapshot plan must root at a sink");
  }
  PlanNode* main = sink->children.front().get();

  QueryResult out;

  // A request that arrives with its deadline already spent fails before any
  // work — the same fast-fail the serving daemon's queue shedding gives.
  if (DeadlinePassed(options.deadline)) {
    return Status::DeadlineExceeded("query deadline expired before execution");
  }

  // Count straight off compressed index storage — no result bitvector. A
  // segmented probe sums per-segment compressed counts, skipping pruned
  // segments entirely (their count is provably zero).
  if (main->kind == OpKind::kIndexProbe && main->count_direct) {
    out.count = 0;
    for (const ProbePart& part : main->parts) {
      if (part.pruned) {
        main->realized.stats.segments_pruned += 1;
        continue;
      }
      INCDB_ASSIGN_OR_RETURN(
          const uint64_t local,
          part.index->ExecuteCount(main->probe, &main->realized.stats));
      out.count += local;
      if (part.segment != nullptr) main->realized.stats.segments_scanned += 1;
    }
    main->realized.executed = true;
    main->realized.output_rows = out.count;
    main->realized.realized_selectivity =
        plan->visible_rows == 0
            ? 0.0
            : static_cast<double>(out.count) /
                  static_cast<double>(plan->visible_rows);
    FinalizeSink(sink, out.count, plan->visible_rows);
    out.stats = AggregateStats(*sink);
    return out;
  }

  std::vector<LeafTask> tasks;
  for (const std::unique_ptr<PlanNode>& child : sink->children) {
    INCDB_RETURN_IF_ERROR(
        CollectTasks(child.get(), options.morsel_rows, &tasks));
  }
  INCDB_RETURN_IF_ERROR(
      RunLeafTasks(&tasks, options.num_threads, options.deadline));

  INCDB_ASSIGN_OR_RETURN(BitVector result, Combine(main));
  if (result.size() != plan->covered_rows) {
    return Status::Internal(plan->routing.index_name + " returned " +
                            std::to_string(result.size()) +
                            " rows, expected its build coverage " +
                            std::to_string(plan->covered_rows));
  }
  result.Resize(plan->visible_rows);
  if (sink->children.size() > 1) {
    // Delta scan over the appended tail the serving index does not cover.
    INCDB_ASSIGN_OR_RETURN(BitVector delta, Combine(sink->children[1].get()));
    if (delta.size() != plan->visible_rows) {
      return Status::Internal("delta scan sized " +
                              std::to_string(delta.size()) + ", expected " +
                              std::to_string(plan->visible_rows));
    }
    result.OrWith(delta);
  }
  StripDeleted(plan->state, &result);
  out.count = result.Count();
  if (!plan->count_only) {
    out.row_ids = result.ToIndices();
    // Row-limit cap: count above stays the full match count; only the
    // materialized ids are truncated (QueryRequest::Limit contract).
    if (plan->limit != 0 && out.row_ids.size() > plan->limit) {
      out.row_ids.resize(plan->limit);
    }
  }
  FinalizeSink(sink, out.count, plan->visible_rows);
  out.stats = AggregateStats(*sink);
  return out;
}

Result<BitVector> ExecutePlanToBitVector(PhysicalPlan* plan,
                                         QueryStats* stats) {
  if (plan == nullptr || plan->root == nullptr) {
    return Status::Internal("empty physical plan");
  }
  if (IsSink(plan->root->kind)) {
    return Status::Internal(
        "ExecutePlanToBitVector expects a bare operator tree, not a sink");
  }
  std::vector<LeafTask> tasks;
  INCDB_RETURN_IF_ERROR(
      CollectTasks(plan->root.get(), ExecOptions().morsel_rows, &tasks));
  INCDB_RETURN_IF_ERROR(RunLeafTasks(&tasks, /*num_threads=*/1,
                                     ExecOptions().deadline));
  INCDB_ASSIGN_OR_RETURN(BitVector result, Combine(plan->root.get()));
  if (stats != nullptr) stats->MergeFrom(AggregateStats(*plan->root));
  return result;
}

}  // namespace plan
}  // namespace incdb
