#ifndef INCDB_BASELINES_MOSAIC_H_
#define INCDB_BASELINES_MOSAIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/io.h"
#include "core/incomplete_index.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// MOSAIC baseline (Ooi, Goh, Tan — VLDB'98, the paper's reference [12]):
/// Multiple One-dimensional one-attribute indexes — a B+-tree per attribute
/// with missing values mapped to a distinguished key (0, outside every
/// domain).
///
/// A k-attribute query becomes 2k one-dimensional subqueries (a value-range
/// scan plus a missing-key lookup per attribute under match semantics), and
/// the per-attribute row sets must then be intersected — the set-operation
/// overhead the paper's techniques avoid. QueryStats reports the subquery
/// count and total B+-tree node accesses.
class MosaicIndex : public IncompleteIndex {
 public:
  static Result<MosaicIndex> Build(const Table& table, int fanout = 64);

  std::string Name() const override { return "MOSAIC"; }
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

  /// Serializes the index into `writer` as per-tree sorted (key, record)
  /// entry lists (the storage engine's catalog path; trees are rebuilt by
  /// bulk insertion on load).
  Status SaveTo(BinaryWriter& writer) const;

  /// Loads an index written by SaveTo. `num_attributes` must match the base
  /// table's attribute count (shape check; entries are validated against
  /// the stored row count).
  static Result<MosaicIndex> LoadFrom(BinaryReader& reader,
                                      size_t num_attributes);

  uint64_t num_rows() const { return num_rows_; }

 private:
  MosaicIndex(uint64_t num_rows, std::vector<BPlusTree> trees)
      : num_rows_(num_rows), trees_(std::move(trees)) {}

  /// The distinguished B+-tree key for missing cells.
  static constexpr int32_t kMissingKey = 0;

  uint64_t num_rows_;
  std::vector<BPlusTree> trees_;  // one per attribute
};

}  // namespace incdb

#endif  // INCDB_BASELINES_MOSAIC_H_
