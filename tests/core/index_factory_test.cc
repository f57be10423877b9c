#include "core/index_factory.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../baselines/test_indexes.h"
#include "table/generator.h"

namespace incdb {
namespace {

const IndexKind kAllKinds[] = {
    IndexKind::kSequentialScan,        IndexKind::kBitmapEquality,
    IndexKind::kBitmapRange,           IndexKind::kBitmapInterval,
    IndexKind::kBitmapBitSliced,       IndexKind::kVaFile,
    IndexKind::kVaPlusFile,            IndexKind::kBitmapMultiComponent,
    IndexKind::kBitmapHierarchical,
};

TEST(IndexFactoryTest, CreatesEveryKind) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 81)).value();
  for (IndexKind kind : kAllKinds) {
    const auto index = CreateIndex(kind, table);
    ASSERT_TRUE(index.ok()) << IndexKindToString(kind);
    EXPECT_EQ(index.value()->Name(), IndexKindToString(kind));
  }
}

TEST(IndexFactoryTest, IndexesAnswerAQuery) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 83)).value();
  RangeQuery q;
  q.terms = {{0, {2, 5}}, {1, {1, 4}}};
  q.semantics = MissingSemantics::kMatch;
  uint64_t expected = 0;
  bool first = true;
  for (IndexKind kind : kAllKinds) {
    const auto index = CreateIndex(kind, table).value();
    const auto result = index->Execute(q);
    ASSERT_TRUE(result.ok()) << index->Name();
    if (first) {
      expected = result.value().Count();
      first = false;
    } else {
      EXPECT_EQ(result.value().Count(), expected) << index->Name();
    }
  }
}

TEST(IndexFactoryTest, ScanHasZeroSizeOthersPositive) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 85)).value();
  EXPECT_EQ(
      CreateIndex(IndexKind::kSequentialScan, table).value()->SizeInBytes(),
      0u);
  for (IndexKind kind : {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                         IndexKind::kBitmapInterval,
                         IndexKind::kBitmapBitSliced,
                         IndexKind::kVaFile}) {
    EXPECT_GT(CreateIndex(kind, table).value()->SizeInBytes(), 0u)
        << IndexKindToString(kind);
  }
}

// The prior-work baselines are built directly rather than through the
// factory; each still reports the name the oracle suites label it with and
// a positive size (bench_baselines prints both).
TEST(IndexFactoryTest, BaselinesReportTheirNameAndSize) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 87)).value();
  const std::vector<TestIndex> baselines = WithBaselines({});
  ASSERT_EQ(baselines.size(), 2u);
  for (const TestIndex& entry : baselines) {
    const auto index = entry.build(table);
    ASSERT_TRUE(index.ok()) << entry.name;
    EXPECT_EQ(index.value()->Name(), entry.name);
    EXPECT_GT(index.value()->SizeInBytes(), 0u) << entry.name;
  }
}

TEST(IndexFactoryTest, PropagatesBuildFailures) {
  auto empty = Table::Create(Schema({{"x", 5}})).value();
  EXPECT_FALSE(CreateIndex(IndexKind::kBitmapEquality, empty).ok());
  EXPECT_FALSE(CreateIndex(IndexKind::kVaFile, empty).ok());
}

TEST(IndexKindTest, Names) {
  EXPECT_EQ(IndexKindToString(IndexKind::kBitmapEquality), "BEE-WAH");
  EXPECT_EQ(IndexKindToString(IndexKind::kVaPlusFile), "VA+-File");
}

TEST(IndexKindTest, FromStringRoundTripsEveryKind) {
  for (IndexKind kind : kAllKinds) {
    const auto parsed = IndexKindFromString(IndexKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << IndexKindToString(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_EQ(IndexKindFromString("HIER").value(),
            IndexKind::kBitmapHierarchical);
}

// The prior-work baselines are not index kinds: their names fail like any
// unknown name, and the valid list does not offer them.
TEST(IndexKindTest, BaselineNamesAreUnknown) {
  for (const char* name :
       {"mosaic", "MOSAIC", "bitstring", "bitstring-augmented"}) {
    const auto parsed = IndexKindFromString(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    const std::string message = parsed.status().message();
    const size_t list = message.find("valid kinds: ");
    ASSERT_NE(list, std::string::npos) << message;
    const std::string valid = message.substr(list);
    EXPECT_NE(valid.find("bee-wah"), std::string::npos) << message;
    EXPECT_EQ(valid.find("mosaic"), std::string::npos) << message;
    EXPECT_EQ(valid.find("bitstring"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace incdb
