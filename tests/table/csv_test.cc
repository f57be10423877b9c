#include "table/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "table/generator.h"

namespace incdb {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  // Every path handed out is removed at TearDown.
  std::string TempPath(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "/" + name);
    return paths_.back();
  }

  std::vector<std::string> paths_;
};

TEST_F(CsvTest, RoundTrip) {
  const Table original = GenerateTable(UniformSpec(200, 9, 0.25, 3, 7)).value();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(original, path).ok());

  const auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& copy = loaded.value();
  ASSERT_EQ(copy.num_rows(), original.num_rows());
  ASSERT_EQ(copy.num_attributes(), original.num_attributes());
  EXPECT_TRUE(copy.schema() == original.schema());
  for (uint64_t r = 0; r < original.num_rows(); ++r) {
    for (size_t c = 0; c < original.num_attributes(); ++c) {
      EXPECT_EQ(copy.Get(r, c), original.Get(r, c));
    }
  }
}

TEST_F(CsvTest, MissingCellsAreQuestionMarks) {
  auto table = Table::Create(Schema({{"x", 3}})).value();
  ASSERT_TRUE(table.AppendRow({kMissingValue}).ok());
  const std::string path = TempPath("missing.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x:3");
  EXPECT_EQ(row, "?");
}

TEST_F(CsvTest, ReadRejectsMissingFile) {
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, ReadRejectsHeaderWithoutCardinality) {
  const std::string path = TempPath("badheader.csv");
  std::ofstream(path) << "a,b\n1,2\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ReadRejectsWrongFieldCount) {
  const std::string path = TempPath("badrow.csv");
  std::ofstream(path) << "a:3,b:3\n1\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ReadRejectsOutOfDomainValue) {
  const std::string path = TempPath("outofdomain.csv");
  std::ofstream(path) << "a:3\n7\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kOutOfRange);
}

TEST_F(CsvTest, ReadRejectsNonNumericValue) {
  const std::string path = TempPath("nonnumeric.csv");
  std::ofstream(path) << "a:3\nxyz\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
}

// Regression: the pre-Result parser used std::stol inside catch(...), which
// silently accepted any numeric *prefix* — "12abc" parsed as 12. The
// from_chars-based parser must consume the whole field or reject it.
TEST_F(CsvTest, ReadRejectsTrailingGarbageAfterNumber) {
  const std::string path = TempPath("trailinggarbage.csv");
  std::ofstream(path) << "a:30\n12abc\n";
  const auto loaded = ReadCsv(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("12abc"), std::string::npos)
      << loaded.status().ToString();
}

// Regression: values past the int64 range used to throw std::out_of_range
// into catch(...); worse, values that fit int64 but not Value (int32) were
// silently truncated by the narrowing cast. Both must now reject the cell.
TEST_F(CsvTest, ReadRejectsValueOverflow) {
  const std::string path = TempPath("overflow.csv");
  std::ofstream(path) << "a:3\n99999999999999999999\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);

  const std::string path2 = TempPath("overflow32.csv");
  std::ofstream(path2) << "a:3\n4294967296\n";
  EXPECT_EQ(ReadCsv(path2).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ReadRejectsHeaderCardinalityWithTrailingGarbage) {
  const std::string path = TempPath("badcard.csv");
  std::ofstream(path) << "a:3x\n1\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ReadRejectsNegativeCardinality) {
  const std::string path = TempPath("negcard.csv");
  std::ofstream(path) << "a:-3\n1\n";
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  std::ofstream(path) << "a:3\n1\n\n2\n";
  const auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 2u);
}

}  // namespace
}  // namespace incdb
