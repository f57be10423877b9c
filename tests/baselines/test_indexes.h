// The index structures the oracle suites sweep, as (name, builder) pairs.
// Served kinds are built through CreateIndex; the prior-work baselines
// (MOSAIC and the bitstring-augmented R-tree) are not index kinds, so they
// are built directly over the table.

#ifndef INCDB_TESTS_BASELINES_TEST_INDEXES_H_
#define INCDB_TESTS_BASELINES_TEST_INDEXES_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bitstring_augmented.h"
#include "baselines/mosaic.h"
#include "core/index_factory.h"

namespace incdb {

struct TestIndex {
  /// What the built index's Name() returns.
  std::string name;
  std::function<Result<std::unique_ptr<IncompleteIndex>>(const Table&)> build;
};

inline void PrintTo(const TestIndex& index, std::ostream* os) {
  *os << index.name;
}

template <typename T>
Result<std::unique_ptr<IncompleteIndex>> Boxed(Result<T> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<IncompleteIndex>(
      std::make_unique<T>(std::move(result).value()));
}

/// The served `kinds`, then the two baselines.
inline std::vector<TestIndex> WithBaselines(
    const std::vector<IndexKind>& kinds) {
  std::vector<TestIndex> indexes;
  for (IndexKind kind : kinds) {
    indexes.push_back({std::string(IndexKindToString(kind)),
                       [kind](const Table& table) {
                         return CreateIndex(kind, table);
                       }});
  }
  indexes.push_back({"MOSAIC", [](const Table& table) {
                       return Boxed(MosaicIndex::Build(table));
                     }});
  indexes.push_back({"Bitstring-Augmented", [](const Table& table) {
                       return Boxed(BitstringAugmentedIndex::Build(table));
                     }});
  return indexes;
}

}  // namespace incdb

#endif  // INCDB_TESTS_BASELINES_TEST_INDEXES_H_
