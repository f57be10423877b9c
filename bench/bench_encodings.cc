// Space-vs-probes study for the slicer x encoder architecture: the direct
// equality index against the multi-component (Chan-Ioannidis O(sum of
// radices) bitmaps) and hierarchical (O(log C) probes per wide range)
// composite kinds, with bit-sliced as the compact-storage yardstick,
// across three cardinality decades.
//
// Expected shape: at C=100 equality is competitive everywhere; at C=10k
// the O(C) bitmap count starts to hurt storage; at C=1M equality pays for
// a million mostly-empty bitvectors while MC stores ~2 sqrt(C) = 2000 and
// hierarchical answers wide ranges in <= 2 log2(C) probes.
//
// build@<kind> rows time BitmapIndex::Build (best of three builds); BRE
// joins at C=100 only, since its C-1 cumulative bitmaps make C=10k and 1M
// builds too large for a smoke run.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "table/generator.h"

namespace incdb {
namespace {

std::vector<RangeQuery> MakeQueries(uint32_t cardinality, bool point,
                                    uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Wide ranges cover 70% of the domain (the regime where equality probes
  // O(C) bitmaps and hierarchical probes O(log C)).
  const uint32_t width =
      point ? 1 : std::max<uint32_t>(1, (cardinality * 7) / 10);
  std::vector<RangeQuery> queries(bench::BenchQueries());
  for (RangeQuery& query : queries) {
    const uint32_t lo = 1 + static_cast<uint32_t>(
                                rng() % (cardinality - width + 1));
    query.terms = {{0, {static_cast<Value>(lo),
                        static_cast<Value>(lo + width - 1)}}};
    query.semantics = MissingSemantics::kNoMatch;
  }
  return queries;
}

int Main() {
  const uint64_t rows = bench::BenchRows(100000);
  const IndexKind kinds[] = {
      IndexKind::kBitmapEquality,
      IndexKind::kBitmapMultiComponent,
      IndexKind::kBitmapHierarchical,
      IndexKind::kBitmapBitSliced,
  };

  std::printf("# Encoding space-vs-probes crossover (%llu rows, 1 attribute, "
              "10%% missing, %zu queries per shape)\n",
              static_cast<unsigned long long>(rows), bench::BenchQueries());
  bench::PrintHeader({"cardinality", "kind", "build_ms", "build_mb",
                      "point_ms", "wide_range_ms"});

  for (uint32_t cardinality : {100u, 10'000u, 1'000'000u}) {
    const Table table =
        GenerateTable(UniformSpec(rows, cardinality, 0.10, 1, 42)).value();
    const std::vector<RangeQuery> point_queries =
        MakeQueries(cardinality, /*point=*/true, 7);
    const std::vector<RangeQuery> wide_queries =
        MakeQueries(cardinality, /*point=*/false, 11);
    const std::string config = "C=" + std::to_string(cardinality);
    std::vector<IndexKind> config_kinds(std::begin(kinds), std::end(kinds));
    if (cardinality == 100) config_kinds.push_back(IndexKind::kBitmapRange);
    for (IndexKind kind : config_kinds) {
      // One index alive at a time: C=1M equality alone holds a million
      // bitvectors and the fleet would otherwise dominate peak RSS.
      std::unique_ptr<IncompleteIndex> index;
      double build_ms = 0.0;
      for (int round = 0; round < 3; ++round) {
        index.reset();
        const Timer timer;
        index = bench::MustCreateIndex(kind, table);
        const double ms = timer.ElapsedMillis();
        build_ms = round == 0 ? ms : std::min(build_ms, ms);
      }
      const uint64_t bytes = index->SizeInBytes();
      const double point_ms =
          bench::MustRunWorkload(*index, point_queries, rows).total_millis;
      const double wide_ms =
          bench::MustRunWorkload(*index, wide_queries, rows).total_millis;
      const std::string name(IndexKindToString(kind));
      bench::PrintRow({std::to_string(cardinality), name,
                       bench::FormatDouble(build_ms, 2),
                       bench::FormatBytesAsMB(bytes),
                       bench::FormatDouble(point_ms, 2),
                       bench::FormatDouble(wide_ms, 2)});
      bench::RecordResult("build@" + name, config, build_ms, bytes);
      bench::RecordResult("build_size@" + name, config, 0.0, bytes);
      bench::RecordResult("point@" + name, config, point_ms, bytes);
      bench::RecordResult("wide_range@" + name, config, wide_ms, bytes);
    }
  }
  bench::WriteJson();
  return 0;
}

}  // namespace
}  // namespace incdb

int main(int argc, char** argv) {
  incdb::bench::Init(argc, argv);
  return incdb::Main();
}
