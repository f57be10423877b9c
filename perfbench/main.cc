// incdb_perfbench: runs one benchmark workload and prints its metrics.
//
//   incdb_perfbench --workload paper_reads|served_ingest|segment_lifecycle
//                   --seed N --seconds S --trace 0|1
//                   [--tiny] [--out DIR] [--work DIR] [--commit ID]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). A result file with the host header and
// supporting figures goes to --out; a traced run also writes its spans
// there as JSON lines. perfbench/run.py builds this binary and runs it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "simd/simd.h"
#include "trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: incdb_perfbench --workload "
               "paper_reads|served_ingest|segment_lifecycle --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out DIR] [--work DIR] "
               "[--commit ID]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options->seconds <= 0) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--out") {
      options->out_dir = value;
    } else if (arg == "--work") {
      options->work_dir = value;
    } else if (arg == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  int (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "paper_reads") {
    run = RunPaperReads;
  } else if (options.workload == "served_ingest") {
    run = RunServedIngest;
  } else if (options.workload == "segment_lifecycle") {
    run = RunSegmentLifecycle;
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);

  // The header identifies what was measured and where. Two result files
  // are comparable only if their headers agree (perfbench/compare.py).
  Report report;
  report.Header("workload", options.workload);
  report.Header("seed", static_cast<double>(options.seed));
  report.Header("seconds", options.seconds);
  report.Header("trace", options.trace ? 1 : 0);
  report.Header("tiny", options.tiny ? 1 : 0);
  report.Header("commit", options.commit);
  report.Header("nproc", std::thread::hardware_concurrency());
  report.Header("simd_level",
                std::string(incdb::simd::LevelToString(
                    incdb::simd::ActiveLevel())));
  report.Header("build_type", INCDB_PERFBENCH_BUILD_TYPE);
  report.Header("save_fsync",
                "Database::Save default: every written file and the store "
                "directory are fsync'd before the manifest rename commits");
  report.Header("storage_medium",
                "stores are small enough for the OS page cache; open and "
                "query timings are page-cache timings, not device timings");

  SetTracing(options.trace);
  const int status = run(options, &report);
  SetTracing(false);

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (options.trace) {
    const std::string spans = stem + "-spans.jsonl";
    if (!WriteSpans(CollectSpans(), spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans in %s\n", spans.c_str());
  }
  std::ofstream(stem + ".json") << report.ResultFile(options.trace);
  std::fprintf(stderr, "perfbench: result in %s.json\n", stem.c_str());
  if (status != 0) return status;
  std::printf("%s\n", report.MetricLine(options.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
