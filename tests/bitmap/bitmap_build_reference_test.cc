// BitmapIndex::Build against a verbatim reference: for every (scheme,
// encoding, missing strategy) combination Build accepts, each stored
// bitmap must equal, word for word, one verbatim BitVector filled row by row
// from the encoding's definition and then compressed. Covers row counts on
// and around WAH group boundaries, cardinalities from 1 to 1000, and tables
// with and without missing cells.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "bitmap/slicer.h"
#include "bitvector/bitvector.h"
#include "table/table.h"

namespace incdb {
namespace {

struct Combo {
  const char* name;
  BitmapIndex::Options options;
};

void PrintTo(const Combo& combo, std::ostream* os) { *os << combo.name; }

const Combo kCombos[] = {
    {"BEE", {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap,
             SlotScheme::kDirect}},
    {"BRE", {BitmapEncoding::kRange, MissingStrategy::kExtraBitmap,
             SlotScheme::kDirect}},
    {"BIE", {BitmapEncoding::kInterval, MissingStrategy::kExtraBitmap,
             SlotScheme::kDirect}},
    {"BSL", {BitmapEncoding::kBitSliced, MissingStrategy::kExtraBitmap,
             SlotScheme::kDirect}},
    {"BEE_AllOnes", {BitmapEncoding::kEquality, MissingStrategy::kAllOnes,
                     SlotScheme::kDirect}},
    {"BEE_AllZeros", {BitmapEncoding::kEquality, MissingStrategy::kAllZeros,
                      SlotScheme::kDirect}},
    {"MC", {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap,
            SlotScheme::kMultiComponent}},
    {"HIER", {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap,
              SlotScheme::kHierarchical}},
};

constexpr uint64_t kRowCounts[] = {1, 30, 31, 32, 62, 1000, 100000};

// One attribute per cardinality. With missing cells, about a fifth of each
// column is missing, and row 0 always is, so even a one-row table has some.
Table MakeTable(uint64_t rows, const std::vector<uint32_t>& cardinalities,
                bool with_missing) {
  std::vector<AttributeSpec> attributes;
  for (uint32_t c : cardinalities) {
    attributes.push_back({"c" + std::to_string(c), c});
  }
  Table table = Table::Create(Schema(attributes)).value();
  std::mt19937_64 rng(rows * 2 + (with_missing ? 1 : 0));
  std::vector<Value> row(cardinalities.size());
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < cardinalities.size(); ++a) {
      const bool missing = with_missing && (r == 0 || rng() % 5 == 0);
      row[a] = missing ? kMissingValue
                       : static_cast<Value>(1 + rng() % cardinalities[a]);
    }
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

// The attribute's bitmaps straight from the encodings' definitions: one
// verbatim BitVector per stored bitmap, filled row by row.
BitmapIndex::AttributeBitmaps Reference(const Column& column, uint64_t rows,
                                        const BitmapIndex::Options& options) {
  const uint32_t cardinality = column.cardinality();
  const Slicer slicer = Slicer::Create(options.scheme, cardinality).value();
  const Value m = static_cast<Value>(IntervalEncodingM(cardinality));
  BitVector missing(rows);
  std::vector<std::vector<BitVector>> axes;
  for (size_t axis = 0; axis < slicer.num_axes(); ++axis) {
    const uint32_t slots = slicer.num_slots(axis);
    uint64_t count = slots;
    switch (options.encoding) {
      case BitmapEncoding::kEquality:
        break;
      case BitmapEncoding::kRange:
        count = slots - 1;  // the all-ones B_C is not stored
        break;
      case BitmapEncoding::kInterval:
        count = IntervalEncodingN(slots);
        break;
      case BitmapEncoding::kBitSliced:
        count = 0;
        while ((uint64_t{1} << count) <= slots) ++count;  // ceil(lg(C+1))
        break;
    }
    axes.emplace_back(count, BitVector(rows));
  }
  bool has_missing = false;
  for (uint64_t r = 0; r < rows; ++r) {
    const Value v = column.Get(r);
    if (IsMissing(v)) {
      has_missing = true;
      missing.Set(r);
      // Missing is value 0 under range encoding, so it is <= every j; the
      // kAllOnes ablation marks it in every value bitmap.
      if (options.encoding == BitmapEncoding::kRange ||
          options.missing_strategy == MissingStrategy::kAllOnes) {
        for (BitVector& bitmap : axes[0]) bitmap.Set(r);
      }
      continue;
    }
    for (size_t axis = 0; axis < axes.size(); ++axis) {
      std::vector<BitVector>& bitmaps = axes[axis];
      const uint32_t slot = slicer.SlotOf(v, axis);
      for (size_t j = 0; j < bitmaps.size(); ++j) {
        bool set = false;
        switch (options.encoding) {
          case BitmapEncoding::kEquality:
            set = j == slot;
            break;
          case BitmapEncoding::kRange:  // B_{j+1}: value <= j+1
            set = v <= static_cast<Value>(j + 1);
            break;
          case BitmapEncoding::kInterval:  // I_{j+1}: value in [j+1, j+m]
            set = v >= static_cast<Value>(j + 1) &&
                  v <= static_cast<Value>(j) + m;
            break;
          case BitmapEncoding::kBitSliced:  // slice j of code v
            set = ((v >> j) & 1) != 0;
            break;
        }
        if (set) bitmaps[j].Set(r);
      }
    }
  }
  BitmapIndex::AttributeBitmaps ref;
  ref.cardinality = cardinality;
  ref.has_missing = has_missing;
  if (has_missing && options.missing_strategy == MissingStrategy::kExtraBitmap) {
    ref.missing = WahBitVector::Compress(missing);
  }
  for (const std::vector<BitVector>& bitmaps : axes) {
    ref.axes.emplace_back();
    for (const BitVector& bitmap : bitmaps) {
      ref.axes.back().push_back(WahBitVector::Compress(bitmap));
    }
  }
  return ref;
}

void ExpectMatchesReference(const Table& table,
                            const BitmapIndex::Options& options) {
  Result<BitmapIndex> index = BitmapIndex::Build(table, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    SCOPED_TRACE("attribute " + table.schema().attribute(a).name);
    const BitmapIndex::AttributeBitmaps& got = index->attributes()[a];
    const BitmapIndex::AttributeBitmaps want =
        Reference(table.column(a), table.num_rows(), options);
    EXPECT_EQ(got.cardinality, want.cardinality);
    EXPECT_EQ(got.has_missing, want.has_missing);
    ASSERT_EQ(got.missing.has_value(), want.missing.has_value());
    if (want.missing.has_value()) {
      EXPECT_TRUE(*got.missing == *want.missing) << "missing bitmap";
    }
    ASSERT_EQ(got.axes.size(), want.axes.size());
    for (size_t axis = 0; axis < want.axes.size(); ++axis) {
      ASSERT_EQ(got.axes[axis].size(), want.axes[axis].size())
          << "axis " << axis;
      for (size_t j = 0; j < want.axes[axis].size(); ++j) {
        ASSERT_TRUE(got.axes[axis][j] == want.axes[axis][j])
            << "axis " << axis << " bitmap " << j << ": got "
            << got.axes[axis][j].DebugString().substr(0, 200) << " want "
            << want.axes[axis][j].DebugString().substr(0, 200);
      }
    }
  }
}

class BitmapBuildReferenceTest : public ::testing::TestWithParam<Combo> {};

TEST_P(BitmapBuildReferenceTest, EveryBitmapEqualsVerbatimReference) {
  const BitmapIndex::Options options = GetParam().options;
  const bool all_ones = options.missing_strategy == MissingStrategy::kAllOnes;
  for (uint64_t rows : kRowCounts) {
    for (bool with_missing : {false, true}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   (with_missing ? " with missing" : " complete"));
      const Table table = MakeTable(rows, {1, 2, 31, 1000}, with_missing);
      if (all_ones && with_missing) {
        // kAllOnes cannot tell a missing cell from the single value of a
        // cardinality-1 attribute (paper §4.2); drop that attribute.
        EXPECT_EQ(BitmapIndex::Build(table, options).status().code(),
                  StatusCode::kNotSupported);
        ExpectMatchesReference(MakeTable(rows, {2, 31, 1000}, true), options);
        continue;
      }
      ExpectMatchesReference(table, options);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBuildableCombinations, BitmapBuildReferenceTest,
    ::testing::ValuesIn(kCombos),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace incdb
