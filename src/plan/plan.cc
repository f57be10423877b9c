#include "plan/plan.h"

#include <cstdio>

namespace incdb {
namespace plan {

std::string_view OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kIndexProbe:
      return "IndexProbe";
    case OpKind::kDeltaScan:
      return "DeltaScan";
    case OpKind::kSeqScanFallback:
      return "SeqScan";
    case OpKind::kAnd:
      return "And";
    case OpKind::kOr:
      return "Or";
    case OpKind::kNot:
      return "Not";
    case OpKind::kCountSink:
      return "CountSink";
    case OpKind::kMaterializeSink:
      return "MaterializeSink";
  }
  return "Unknown";
}

namespace {

std::string FormatFraction(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

void AppendCounters(const QueryStats& stats, std::string* out) {
  const auto add = [out](const char* name, uint64_t value) {
    if (value == 0) return;
    *out += ' ';
    *out += name;
    *out += '=';
    *out += std::to_string(value);
  };
  add("bv", stats.bitvectors_accessed);
  add("ops", stats.bitvector_ops);
  add("words", stats.words_touched);
  add("scanned", stats.rows_scanned);
  add("cand", stats.candidates);
  add("fp", stats.false_positives);
  add("nodes", stats.nodes_accessed);
  add("subq", stats.subqueries);
  add("simd", stats.simd_path);
  add("decoded", stats.words_decoded);
  add("segs", stats.segments_scanned);
  add("pruned", stats.segments_pruned);
  add("axes", stats.probe_components);
  add("levels", stats.probe_levels);
}

void RenderNode(const PlanNode& node, const std::string& prefix, bool is_last,
                bool is_root, std::string* out) {
  if (!is_root) {
    *out += prefix;
    *out += is_last ? "└─ " : "├─ ";
  }
  *out += node.label.empty() ? std::string(OpKindToString(node.kind))
                             : node.label;
  if (node.estimated_selectivity >= 0.0) {
    *out += " est_sel=" + FormatFraction(node.estimated_selectivity);
  }
  if (node.realized.executed) {
    *out += " sel=" + FormatFraction(node.realized.realized_selectivity);
    *out += " rows=" + std::to_string(node.realized.output_rows);
    if (node.realized.morsels > 1) {
      *out += " morsels=" + std::to_string(node.realized.morsels);
    }
    AppendCounters(node.realized.stats, out);
  } else {
    *out += " (not executed)";
  }
  *out += '\n';
  const std::string child_prefix =
      is_root ? "" : prefix + (is_last ? "   " : "│  ");
  for (size_t i = 0; i < node.children.size(); ++i) {
    RenderNode(*node.children[i], child_prefix, i + 1 == node.children.size(),
               /*is_root=*/false, out);
  }
}

}  // namespace

std::string ExplainPlan(const PhysicalPlan& plan) {
  std::string out;
  if (plan.root == nullptr) return out;
  RenderNode(*plan.root, "", /*is_last=*/true, /*is_root=*/true, &out);
  return out;
}

}  // namespace plan
}  // namespace incdb
