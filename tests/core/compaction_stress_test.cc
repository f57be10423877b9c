// Compaction stress: readers race a writer that inserts, deletes, and
// physically compacts a segmented store (plus the background compactor in
// the second case), or a store whose registry indexes every compaction
// rebuilds in parallel (the third case). Run under TSan in the nightly
// long-variant job (--gtest_repeat) to prove the epoch swap keeps
// compaction invisible to readers; under any build every answer is checked
// against the row-level oracle evaluated at its own pinned snapshot, so a
// reader observing a half-compacted store surfaces as a wrong answer, not
// just a race report.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/snapshot.h"
#include "plan/planner.h"
#include "table/generator.h"

namespace incdb {
namespace {

constexpr size_t kNumReaders = 6;
constexpr int kWriterOps = 160;
constexpr int kReaderQueries = 80;
constexpr uint32_t kCardinality = 6;
constexpr size_t kDims = 3;
constexpr uint64_t kSegmentRows = 32;

struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

std::vector<uint32_t> OracleTerms(const Snapshot& snapshot,
                                  const RangeQuery& query) {
  std::vector<uint32_t> expected;
  for (uint64_t r = 0; r < snapshot.num_rows(); ++r) {
    if (snapshot.IsDeleted(static_cast<uint32_t>(r))) continue;
    if (RowMatches(snapshot.table(), r, query)) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  return expected;
}

Database MakeDb(uint64_t seed) {
  Database db =
      Database::FromTable(
          GenerateTable(UniformSpec(6 * kSegmentRows, kCardinality, 0.2,
                                    kDims, seed))
              .value())
          .value();
  SegmentOptions options;
  options.segment_rows = kSegmentRows;
  EXPECT_TRUE(db.EnableSegments(options).ok());
  return db;
}

/// No segments: registry indexes serve the rows they cover, and each
/// CompactNow rebuilds all four of them over the rewritten table.
Database MakeIndexedDb(uint64_t seed) {
  Database db =
      Database::FromTable(
          GenerateTable(UniformSpec(6 * kSegmentRows, kCardinality, 0.2,
                                    kDims, seed))
              .value())
          .value();
  for (const IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kVaFile}) {
    EXPECT_TRUE(db.BuildIndex(kind).ok());
  }
  return db;
}

void ReaderLoop(const Database& db, size_t id,
                const std::atomic<bool>& writer_done,
                std::atomic<uint64_t>& verified, std::atomic<int>& failures) {
  Lcg rng{0x9e3779b97f4a7c15ull ^ (id * 0x2545f4914f6cdd1dull)};
  for (int q = 0; q < kReaderQueries || !writer_done.load(); ++q) {
    if (q >= 4 * kReaderQueries) break;  // bound runtime if writer lags
    const size_t attr = rng.Next() % kDims;
    const Value lo = static_cast<Value>(1 + rng.Next() % kCardinality);
    const Value hi = static_cast<Value>(
        lo + rng.Next() % (kCardinality - static_cast<uint64_t>(lo) + 1));
    const MissingSemantics semantics = rng.Next() % 2 == 0
                                           ? MissingSemantics::kMatch
                                           : MissingSemantics::kNoMatch;
    // Pin one snapshot for query AND oracle: compaction may swap the base
    // table under us at any moment, but this epoch's view must not move.
    const Snapshot snapshot = db.GetSnapshot();
    RangeQuery query;
    query.semantics = semantics;
    query.terms = {{attr, {lo, hi}}};
    auto request = QueryRequest::Terms(
        {{"a" + std::to_string(attr), lo, hi}}, semantics);
    if (rng.Next() % 3 == 0) request = request.Parallel(3);
    const auto result = RunOnSnapshot(snapshot, request);
    if (!result.ok() ||
        result->row_ids != OracleTerms(snapshot, query) ||
        result->epoch != snapshot.epoch() ||
        result->visible_rows != snapshot.num_rows()) {
      failures.fetch_add(1);
      return;
    }
    verified.fetch_add(1);
  }
}

/// Readers race a writer that inserts, deletes and calls CompactNow.
void RaceExplicitCompaction(Database& db) {
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<int> failures{0};

  auto writer = [&]() {
    Lcg rng{97};
    uint64_t compactions = 0;
    for (int op = 0; op < kWriterOps; ++op) {
      const uint64_t dice = rng.Next() % 10;
      if (dice < 5) {
        std::vector<Value> row(kDims);
        for (size_t a = 0; a < kDims; ++a) {
          row[a] = rng.Next() % 5 == 0
                       ? kMissingValue
                       : static_cast<Value>(1 + rng.Next() % kCardinality);
        }
        ASSERT_TRUE(db.Insert(row).ok());
      } else if (dice < 8) {
        // Any live row; duplicates are rejected, which is fine — the point
        // is concurrent mask churn, not a precise count.
        const uint32_t row =
            static_cast<uint32_t>(rng.Next() % db.num_rows());
        (void)db.Delete(row);
      } else {
        ASSERT_TRUE(db.CompactNow().ok());
        ++compactions;
      }
    }
    // End on a compaction so the final state also exercised a full rewrite.
    ASSERT_TRUE(db.CompactNow().ok());
    writer_done.store(true);
    EXPECT_GT(compactions, 0u);
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(kNumReaders + 1);
    for (size_t r = 0; r < kNumReaders; ++r) {
      threads.emplace_back(ReaderLoop, std::cref(db), r,
                           std::cref(writer_done), std::ref(verified),
                           std::ref(failures));
    }
    threads.emplace_back(writer);
    for (std::thread& thread : threads) thread.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(verified.load(), kNumReaders * kReaderQueries);
  EXPECT_EQ(db.num_deleted_rows(), 0u);  // final CompactNow reclaimed all
  EXPECT_GE(db.GetCompactionStats().compactions, 1u);
}

TEST(CompactionStressTest, ReadersRaceExplicitCompaction) {
  Database db = MakeDb(2401);
  RaceExplicitCompaction(db);
}

TEST(CompactionStressTest, ReadersRaceCompactionRebuildingRegistryIndexes) {
  Database db = MakeIndexedDb(2411);
  RaceExplicitCompaction(db);
  // The final compaction rebuilt every index over the whole store.
  const Snapshot snapshot = db.GetSnapshot();
  ASSERT_EQ(snapshot.state().indexes->size(), 4u);
  for (const internal::SnapshotIndexEntry& entry : *snapshot.state().indexes) {
    EXPECT_EQ(entry.covered_rows, snapshot.num_rows());
  }
}

TEST(CompactionStressTest, ReadersRaceBackgroundCompactor) {
  Database db = MakeDb(2417);
  BackgroundCompactor::Options options;
  options.interval_millis = 2;
  options.min_deleted_rows = 4;
  BackgroundCompactor compactor(&db, options);

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<int> failures{0};

  // The writer only inserts and deletes; all compaction comes from the
  // background thread, so the race between its writer_mu critical section
  // and this writer is genuinely exercised.
  auto writer = [&]() {
    Lcg rng{131};
    for (int op = 0; op < kWriterOps; ++op) {
      if (rng.Next() % 2 == 0) {
        std::vector<Value> row(kDims);
        for (size_t a = 0; a < kDims; ++a) {
          row[a] = static_cast<Value>(1 + rng.Next() % kCardinality);
        }
        ASSERT_TRUE(db.Insert(row).ok());
      } else {
        const uint32_t row =
            static_cast<uint32_t>(rng.Next() % db.num_rows());
        (void)db.Delete(row);
      }
    }
    writer_done.store(true);
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(kNumReaders + 1);
    for (size_t r = 0; r < kNumReaders; ++r) {
      threads.emplace_back(ReaderLoop, std::cref(db), r,
                           std::cref(writer_done), std::ref(verified),
                           std::ref(failures));
    }
    threads.emplace_back(writer);
    for (std::thread& thread : threads) thread.join();
  }
  compactor.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(verified.load(), kNumReaders * kReaderQueries);
}

}  // namespace
}  // namespace incdb
