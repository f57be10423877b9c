#include "query/query.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "common/bitutil.h"

namespace incdb {

std::string_view MissingSemanticsToString(MissingSemantics semantics) {
  switch (semantics) {
    case MissingSemantics::kMatch:
      return "match";
    case MissingSemantics::kNoMatch:
      return "no-match";
  }
  return "unknown";
}

bool RangeQuery::IsPointQuery() const {
  for (const QueryTerm& term : terms) {
    if (!term.interval.IsPoint()) return false;
  }
  return true;
}

std::string RangeQuery::ToString() const {
  std::string out = "[";
  out += MissingSemanticsToString(semantics);
  out += "]";
  for (size_t i = 0; i < terms.size(); ++i) {
    out += (i == 0) ? " " : " AND ";
    out += "A";
    out += std::to_string(terms[i].attribute);
    out += " in [";
    out += std::to_string(terms[i].interval.lo);
    out += ",";
    out += std::to_string(terms[i].interval.hi);
    out += "]";
  }
  return out;
}

Status ValidateQuery(const RangeQuery& query, const Table& table) {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must have at least one term");
  }
  std::unordered_set<size_t> seen;
  for (const QueryTerm& term : query.terms) {
    if (term.attribute >= table.num_attributes()) {
      return Status::OutOfRange("attribute index " +
                                std::to_string(term.attribute) +
                                " out of range");
    }
    if (!seen.insert(term.attribute).second) {
      return Status::InvalidArgument("duplicate attribute " +
                                     std::to_string(term.attribute) +
                                     " in search key");
    }
    const uint32_t cardinality =
        table.schema().attribute(term.attribute).cardinality;
    if (term.interval.lo < 1 || term.interval.hi > static_cast<Value>(cardinality) ||
        term.interval.lo > term.interval.hi) {
      return Status::InvalidArgument(
          "interval [" + std::to_string(term.interval.lo) + "," +
          std::to_string(term.interval.hi) + "] invalid for cardinality " +
          std::to_string(cardinality));
    }
  }
  return Status::OK();
}

bool RowMatches(const Table& table, uint64_t row, const RangeQuery& query) {
  for (const QueryTerm& term : query.terms) {
    const Value v = table.Get(row, term.attribute);
    if (IsMissing(v)) {
      if (query.semantics == MissingSemantics::kNoMatch) return false;
      continue;  // missing counts as a match for this term
    }
    if (!term.interval.Contains(v)) return false;
  }
  return true;
}

namespace {

/// Packs 64 bytes, each 0 or 1, into one word: bit i is bytes[i]. One
/// multiply folds each group of eight bytes into its top byte; every byte
/// lands on its own bit, so no carries mix them.
uint64_t PackBytes(const uint8_t* bytes) {
  uint64_t out = 0;
  for (int group = 0; group < 8; ++group) {
    uint64_t eight;
    std::memcpy(&eight, bytes + 8 * group, sizeof(eight));
    if constexpr (std::endian::native == std::endian::big) {
      eight = __builtin_bswap64(eight);
    }
    out |= ((eight * 0x0102040810204080ULL) >> 56) << (8 * group);
  }
  return out;
}

}  // namespace

void TermWords(const Column& column, Interval interval, uint64_t begin,
               uint64_t end, uint64_t* in, uint64_t* missing) {
  if (begin >= end) return;
  const uint64_t base = begin / 64 * 64;
  const size_t words = bitutil::CeilDiv(end, 64) - begin / 64;
  std::fill(in, in + words, 0);
  std::fill(missing, missing + words, 0);
  // v in [lo, hi] as one unsigned compare: (v - lo) <= (hi - lo). An empty
  // interval (hi < lo) holds no cell; `keep` zeroes its in mask.
  const uint32_t lo = static_cast<uint32_t>(interval.lo);
  const uint32_t width = static_cast<uint32_t>(interval.hi) - lo;
  const uint64_t keep = interval.lo <= interval.hi ? ~uint64_t{0} : 0;
  uint64_t row = begin;
  while (row < end) {
    const Column::Contiguous run = column.ContiguousAt(row);
    const uint64_t run_end = std::min(end, row + run.count);
    const Value* cell = run.data;
    while (row < run_end) {
      const size_t w = static_cast<size_t>((row - base) / 64);
      if (row % 64 == 0 && run_end - row >= 64) {
        // A whole word inside the run: 64 branch-free compares the
        // compiler vectorizes, packed to bits.
        uint8_t in_bytes[64];
        uint8_t missing_bytes[64];
        for (int i = 0; i < 64; ++i) {
          const uint32_t v = static_cast<uint32_t>(cell[i]);
          in_bytes[i] = (v - lo) <= width;
          missing_bytes[i] = v == static_cast<uint32_t>(kMissingValue);
        }
        missing[w] = PackBytes(missing_bytes);
        in[w] = PackBytes(in_bytes) & ~missing[w] & keep;
        row += 64;
        cell += 64;
        continue;
      }
      // A word the range or the run cuts: one row at a time.
      const uint64_t bit = uint64_t{1} << (row % 64);
      const Value v = *cell;
      if (IsMissing(v)) {
        missing[w] |= bit;
      } else if (interval.Contains(v)) {
        in[w] |= bit;
      }
      ++row;
      ++cell;
    }
  }
}

void MatchWords(const Table& table, const RangeQuery& query, uint64_t begin,
                uint64_t end, uint64_t* out) {
  if (begin >= end) return;
  const size_t words = bitutil::CeilDiv(end, 64) - begin / 64;
  std::fill(out, out + words, ~uint64_t{0});
  bitutil::ClearOutsideRange(begin, end, out);
  std::vector<uint64_t> in(words);
  std::vector<uint64_t> missing(words);
  const bool missing_matches = query.semantics == MissingSemantics::kMatch;
  for (const QueryTerm& term : query.terms) {
    TermWords(table.column(term.attribute), term.interval, begin, end,
              in.data(), missing.data());
    for (size_t w = 0; w < words; ++w) {
      out[w] &= missing_matches ? in[w] | missing[w] : in[w];
    }
  }
}

}  // namespace incdb
