#include "core/advisor.h"

#include <algorithm>
#include <cmath>

#include "bitmap/slicer.h"
#include "common/bitutil.h"
#include "plan/cost.h"
#include "query/selectivity.h"
#include "stats/wah_model.h"

namespace incdb {

IndexAdvisor::IndexAdvisor(const Table& table)
    : schema_(table.schema()), num_rows_(table.num_rows()) {
  histograms_.reserve(table.num_attributes());
  missing_counts_.reserve(table.num_attributes());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    histograms_.push_back(AttributeHistogram::FromColumn(table.column(a)));
    missing_counts_.push_back(histograms_.back().missing_count());
  }
}

RangeQuery IndexAdvisor::SynthesizeQuery(const WorkloadProfile& profile) const {
  RangeQuery query;
  query.semantics = profile.semantics;
  const size_t dims = std::min(profile.dims, histograms_.size());
  for (size_t a = 0; a < dims; ++a) {
    const double cardinality =
        static_cast<double>(histograms_[a].cardinality());
    const double width =
        profile.point_queries
            ? 1.0
            : std::clamp(std::round(profile.attribute_selectivity *
                                    cardinality),
                         1.0, cardinality);
    const Value lo = static_cast<Value>(1.0 + (cardinality - width) / 2.0);
    query.terms.push_back(
        {a, Interval{lo, lo + static_cast<Value>(width) - 1}});
  }
  return query;
}

double IndexAdvisor::SizeBytes(IndexKind kind) const {
  const IndexKindInfo* info = FindIndexKind(kind);
  if (info == nullptr || (!info->bitmap && !info->va)) return 0.0;
  const double n = static_cast<double>(num_rows_);
  double size = 0.0;
  for (const AttributeHistogram& hist : histograms_) {
    const uint32_t cardinality = hist.cardinality();
    if (info->va.has_value()) {
      size += n * bitutil::BitsForCardinality(cardinality) / 8.0;
      continue;
    }
    // One WAH bitmap per stored bitvector, at the density of the rows it
    // holds.
    auto add_bitmap = [&](double rows) {
      size += ExpectedWahBytes(num_rows_, rows / std::max(1.0, n));
    };
    const BitmapIndex::Options& options = *info->bitmap;
    if (options.scheme != SlotScheme::kDirect) {
      // Composite kinds: one bitmap per slot of every slicer axis.
      const Result<Slicer> sliced = Slicer::Create(options.scheme, cardinality);
      if (!sliced.ok()) continue;
      const Slicer& slicer = sliced.value();
      for (size_t axis = 0; axis < slicer.axes().size(); ++axis) {
        std::vector<double> mass(slicer.axes()[axis].num_slots, 0.0);
        for (uint32_t v = 1; v <= cardinality; ++v) {
          mass[slicer.SlotOf(v, axis)] += static_cast<double>(hist.count(v));
        }
        for (double slot_mass : mass) add_bitmap(slot_mass);
      }
    } else {
      switch (options.encoding) {
        case BitmapEncoding::kEquality:
          for (uint32_t v = 1; v <= cardinality; ++v) {
            size += ExpectedWahBytes(num_rows_, hist.BitDensity(v));
          }
          break;
        case BitmapEncoding::kRange: {
          // B_j holds the values through j plus the missing rows.
          double cumulative = static_cast<double>(hist.missing_count());
          for (uint32_t j = 1; j + 1 <= cardinality; ++j) {
            cumulative += static_cast<double>(hist.count(j));
            add_bitmap(cumulative);
          }
          break;
        }
        case BitmapEncoding::kInterval: {
          const uint32_t m = IntervalEncodingM(cardinality);
          for (uint32_t j = 1; j <= IntervalEncodingN(cardinality); ++j) {
            double mass = 0.0;
            for (uint32_t v = j; v <= std::min(cardinality, j + m - 1); ++v) {
              mass += static_cast<double>(hist.count(v));
            }
            add_bitmap(mass);
          }
          break;
        }
        case BitmapEncoding::kBitSliced: {
          const int slices = bitutil::BitsForCardinality(cardinality);
          for (int k = 0; k < slices; ++k) {
            double mass = 0.0;
            for (uint32_t v = 1; v <= cardinality; ++v) {
              if ((v >> k) & 1) mass += static_cast<double>(hist.count(v));
            }
            add_bitmap(mass);
          }
          break;
        }
      }
    }
    // Every bitmap kind keeps one missing bitmap per attribute with gaps.
    if (hist.missing_count() > 0) {
      size += ExpectedWahBytes(num_rows_, hist.MissingRate());
    }
  }
  return size;
}

IndexCostEstimate IndexAdvisor::Estimate(IndexKind kind,
                                         const WorkloadProfile& profile) const {
  const RangeQuery query = SynthesizeQuery(profile);
  // The §5.3 selectivity the router predicts for the same query.
  double selectivity = 1.0;
  for (const QueryTerm& term : query.terms) {
    const AttributeHistogram& hist = histograms_[term.attribute];
    selectivity *= TermMatchProbability(
        static_cast<double>(term.interval.Width()) /
            static_cast<double>(hist.cardinality()),
        hist.MissingRate(), query.semantics);
  }
  IndexCostEstimate estimate;
  estimate.kind = kind;
  estimate.size_bytes = SizeBytes(kind);
  estimate.query_cost =
      plan::KindCost(schema_, missing_counts_, num_rows_, kind, query.terms,
                     query.semantics, selectivity);
  return estimate;
}

std::vector<IndexCostEstimate> IndexAdvisor::Rank(
    const WorkloadProfile& profile, double memory_budget_bytes) const {
  std::vector<IndexCostEstimate> ranked;
  for (const IndexKindInfo& info : IndexKinds()) {
    const IndexCostEstimate estimate = Estimate(info.kind, profile);
    if (estimate.size_bytes <= memory_budget_bytes) ranked.push_back(estimate);
  }
  const bool is_point = plan::TermsArePoint(SynthesizeQuery(profile).terms);
  std::sort(ranked.begin(), ranked.end(),
            [is_point](const IndexCostEstimate& a, const IndexCostEstimate& b) {
              if (a.query_cost != b.query_cost) {
                return a.query_cost < b.query_cost;
              }
              return plan::PreferenceRank(a.kind, is_point) <
                     plan::PreferenceRank(b.kind, is_point);
            });
  return ranked;
}

IndexKind IndexAdvisor::Recommend(const WorkloadProfile& profile,
                                  double memory_budget_bytes) const {
  const std::vector<IndexCostEstimate> ranked =
      Rank(profile, memory_budget_bytes);
  // The scan has size 0 and always qualifies, so ranked is never empty.
  return ranked.front().kind;
}

}  // namespace incdb
