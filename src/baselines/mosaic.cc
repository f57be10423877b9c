#include "baselines/mosaic.h"

namespace incdb {

Result<MosaicIndex> MosaicIndex::Build(const Table& table, int fanout) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build MOSAIC on an empty table");
  }
  std::vector<BPlusTree> trees;
  trees.reserve(table.num_attributes());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    BPlusTree tree(fanout);
    const Column& column = table.column(a);
    for (uint64_t r = 0; r < table.num_rows(); ++r) {
      const Value v = column.Get(r);
      tree.Insert(IsMissing(v) ? kMissingKey : v, static_cast<uint32_t>(r));
    }
    trees.push_back(std::move(tree));
  }
  return MosaicIndex(table.num_rows(), std::move(trees));
}

Result<BitVector> MosaicIndex::Execute(const RangeQuery& query,
                                       QueryStats* stats) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must have at least one term");
  }
  BitVector result;
  bool first = true;
  std::vector<uint32_t> rows;
  for (const QueryTerm& term : query.terms) {
    if (term.attribute >= trees_.size()) {
      return Status::OutOfRange("attribute index " +
                                std::to_string(term.attribute) +
                                " out of range");
    }
    const BPlusTree& tree = trees_[term.attribute];
    rows.clear();
    // Subquery 1: the value range.
    uint64_t nodes = tree.RangeScan(term.interval.lo, term.interval.hi, &rows);
    uint64_t subqueries = 1;
    // Subquery 2: the distinguished missing key (match semantics only).
    if (query.semantics == MissingSemantics::kMatch) {
      nodes += tree.Lookup(kMissingKey, &rows);
      ++subqueries;
    }
    if (stats != nullptr) {
      stats->nodes_accessed += nodes;
      stats->subqueries += subqueries;
    }
    // Set operation: intersect this attribute's row set into the result.
    BitVector attr_rows(num_rows_);
    for (uint32_t r : rows) attr_rows.Set(r);
    if (first) {
      result = std::move(attr_rows);
      first = false;
    } else {
      result.AndWith(attr_rows);
    }
  }
  return result;
}

uint64_t MosaicIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const BPlusTree& tree : trees_) total += tree.SizeInBytes();
  return total;
}

}  // namespace incdb
