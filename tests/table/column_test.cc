#include "table/column.h"

#include <gtest/gtest.h>

#include <vector>

namespace incdb {
namespace {

TEST(ColumnTest, AppendAndGet) {
  Column col(5);
  EXPECT_TRUE(col.Append(1).ok());
  EXPECT_TRUE(col.Append(5).ok());
  EXPECT_TRUE(col.Append(kMissingValue).ok());
  EXPECT_EQ(col.num_rows(), 3u);
  EXPECT_EQ(col.Get(0), 1);
  EXPECT_EQ(col.Get(1), 5);
  EXPECT_TRUE(col.IsMissingAt(2));
  EXPECT_FALSE(col.IsMissingAt(0));
}

TEST(ColumnTest, RejectsOutOfDomain) {
  Column col(5);
  EXPECT_EQ(col.Append(6).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(col.Append(-1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(col.num_rows(), 0u);  // failed appends do not mutate
}

TEST(ColumnTest, MissingStats) {
  Column col(3);
  ASSERT_TRUE(col.Append(1).ok());
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  ASSERT_TRUE(col.Append(2).ok());
  EXPECT_EQ(col.MissingCount(), 2u);
  EXPECT_DOUBLE_EQ(col.MissingRate(), 0.5);
}

TEST(ColumnTest, MissingRateOfEmptyColumnIsZero) {
  Column col(3);
  EXPECT_DOUBLE_EQ(col.MissingRate(), 0.0);
}

TEST(ColumnTest, Histogram) {
  Column col(3);
  for (Value v : {1, 1, 2, kMissingValue, 3, 3, 3}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  const std::vector<uint64_t> hist = col.Histogram();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0], 1u);  // missing
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 3u);
}

TEST(ColumnTest, DistinctCount) {
  Column col(10);
  for (Value v : {1, 1, 5, kMissingValue, 5}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  EXPECT_EQ(col.DistinctCount(), 2u);
}

TEST(ColumnTest, NonMissingMean) {
  Column col(10);
  for (Value v : {2, 4, kMissingValue, 6}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  EXPECT_DOUBLE_EQ(col.NonMissingMean(), 4.0);
}

TEST(ColumnTest, NonMissingMeanAllMissing) {
  Column col(10);
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  EXPECT_DOUBLE_EQ(col.NonMissingMean(), 0.0);
}

// Checks that ContiguousAt(row) points at row's cell and that its run
// spans `expected_count` cells, each equal to Get of its row (as far as
// rows exist).
void ExpectRun(const Column& col, uint64_t row, uint64_t expected_count) {
  const Column::Contiguous run = col.ContiguousAt(row);
  EXPECT_EQ(run.count, expected_count) << "row " << row;
  for (uint64_t i = 0; i < run.count && row + i < col.num_rows(); ++i) {
    ASSERT_EQ(run.data[i], col.Get(row + i)) << "row " << row + i;
  }
}

Value Pattern(uint64_t row) { return static_cast<Value>(row % 7); }

TEST(ColumnTest, ContiguousRunsEndAtHeapBlockBoundaries) {
  Column col(6);
  // Blocks hold rows [0, 1024), [1024, 3072), [3072, 7168).
  for (uint64_t r = 0; r < 3100; ++r) ASSERT_TRUE(col.Append(Pattern(r)).ok());
  ExpectRun(col, 0, 1024);
  ExpectRun(col, 1000, 24);
  ExpectRun(col, 1023, 1);
  ExpectRun(col, 1024, 2048);
  ExpectRun(col, 3071, 1);
  // The last block's run reaches its capacity, past the rows written.
  ExpectRun(col, 3072, 4096);
  ExpectRun(col, 3099, 4069);
}

TEST(ColumnTest, ContiguousRunsCrossFromBorrowedPrefixToHeap) {
  std::vector<Value> prefix(100);
  for (uint64_t r = 0; r < prefix.size(); ++r) prefix[r] = Pattern(r);
  Column col = Column::Borrowed(6, prefix.data(), prefix.size());
  for (uint64_t r = 100; r < 1200; ++r) {
    ASSERT_TRUE(col.Append(Pattern(r)).ok());
  }
  EXPECT_EQ(col.ContiguousAt(0).data, prefix.data());
  ExpectRun(col, 0, 100);
  EXPECT_EQ(col.ContiguousAt(99).data, prefix.data() + 99);
  ExpectRun(col, 99, 1);
  // Heap blocks count from the end of the prefix.
  ExpectRun(col, 100, 1024);
  ExpectRun(col, 1123, 1);
  ExpectRun(col, 1124, 2048);
}

TEST(ColumnTest, ContiguousRunsFollowBorrowedExtents) {
  std::vector<Value> a(70);
  std::vector<Value> b(5);
  std::vector<Value> c(130);
  uint64_t row = 0;
  for (std::vector<Value>* extent : {&a, &b, &c}) {
    for (Value& v : *extent) v = Pattern(row++);
  }
  Column col = Column::BorrowedExtents(
      6, {{a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()}});
  for (uint64_t r = 205; r < 300; ++r) {
    ASSERT_TRUE(col.Append(Pattern(r)).ok());
  }
  EXPECT_EQ(col.ContiguousAt(0).data, a.data());
  ExpectRun(col, 0, 70);
  ExpectRun(col, 69, 1);
  EXPECT_EQ(col.ContiguousAt(70).data, b.data());
  ExpectRun(col, 70, 5);
  ExpectRun(col, 72, 3);
  EXPECT_EQ(col.ContiguousAt(75).data, c.data());
  ExpectRun(col, 75, 130);
  ExpectRun(col, 204, 1);
  ExpectRun(col, 205, 1024);
  // Copies share the borrowed extents.
  const Column copy = col;
  EXPECT_EQ(copy.ContiguousAt(75).data, c.data());
  ExpectRun(copy, 250, 979);
}

}  // namespace
}  // namespace incdb
