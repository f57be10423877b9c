#ifndef INCDB_CORE_SCAN_INDEX_H_
#define INCDB_CORE_SCAN_INDEX_H_

#include <string>

#include "core/incomplete_index.h"
#include "query/seq_scan.h"
#include "table/table.h"

namespace incdb {

/// IncompleteIndex adapter over the sequential scan, so "no index" can flow
/// through the same executor/verification plumbing as every real index.
class ScanIndex : public IncompleteIndex {
 public:
  explicit ScanIndex(const Table& table) : scan_(table) {}

  std::string Name() const override { return "SeqScan"; }

  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override {
    (void)stats;  // a scan has no index structures to account
    return scan_.ExecuteToBitVector(query);
  }

  uint64_t SizeInBytes() const override { return 0; }

 private:
  SequentialScan scan_;
};

}  // namespace incdb

#endif  // INCDB_CORE_SCAN_INDEX_H_
