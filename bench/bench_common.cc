#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "simd/simd.h"

namespace incdb {
namespace bench {

namespace {

struct JsonEntry {
  std::string bench;
  std::string config;
  double millis;
  uint64_t bytes;
};

std::string g_json_path;                 // NOLINT: bench-process lifetime
uint64_t g_rows = 0;                     // NOLINT: last BenchRows() value
std::vector<JsonEntry>* g_json_entries;  // NOLINT

// Function-local static instead of a raw `new` so the storage is
// RAII-managed; the pointer above doubles as the "--json enabled" flag.
std::vector<JsonEntry>& JsonEntriesStorage() {
  static std::vector<JsonEntry> entries;  // NOLINT: bench-process lifetime
  return entries;
}

// Benchmark names/configs are plain identifiers, but escape defensively so
// the output is always valid JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      g_json_path = argv[++i];
      if (g_json_entries == nullptr) g_json_entries = &JsonEntriesStorage();
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
}

void RecordResult(const std::string& bench, const std::string& config,
                  double millis, uint64_t bytes) {
  if (g_json_entries == nullptr) return;
  g_json_entries->push_back({bench, config, millis, bytes});
}

void WriteJson() {
  if (g_json_path.empty()) return;
  std::ofstream out(g_json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n",
                 g_json_path.c_str());
    std::exit(1);
  }
  out << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \"" << simd::LevelToString(simd::DetectedLevel())
      << "\", \"build\": \"" << INCDB_BENCH_BUILD_TYPE
      << "\", \"rows\": " << g_rows << ", \"queries\": " << BenchQueries()
      << "},\n  \"results\": [";
  const std::vector<JsonEntry>& entries = *g_json_entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    char millis[64];
    std::snprintf(millis, sizeof(millis), "%.4f", entries[i].millis);
    out << "    {\"bench\": \"" << JsonEscape(entries[i].bench)
        << "\", \"config\": \"" << JsonEscape(entries[i].config)
        << "\", \"millis\": " << millis
        << ", \"bytes\": " << entries[i].bytes << "}";
  }
  out << "\n  ]\n}\n";
}

uint64_t BenchRows(uint64_t fallback) {
  g_rows = fallback;
  const char* env = std::getenv("INCDB_BENCH_ROWS");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) g_rows = static_cast<uint64_t>(parsed);
  }
  return g_rows;
}

size_t BenchQueries() {
  const char* env = std::getenv("INCDB_BENCH_QUERIES");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 100;
}

void PrintHeader(const std::vector<std::string>& columns) {
  PrintRow(columns);
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::fputs(cells[i].c_str(), stdout);
    std::fputc(i + 1 == cells.size() ? '\n' : ',', stdout);
  }
  std::fflush(stdout);
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatBytesAsMB(uint64_t bytes) {
  return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 3);
}

WorkloadResult MustRunWorkload(const IncompleteIndex& index,
                               const std::vector<RangeQuery>& queries,
                               uint64_t num_rows) {
  auto result = RunWorkload(index, queries, num_rows);
  if (!result.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::unique_ptr<IncompleteIndex> MustCreateIndex(IndexKind kind,
                                                 const Table& table) {
  auto index = CreateIndex(kind, table);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed (%s): %s\n",
                 std::string(IndexKindToString(kind)).c_str(),
                 index.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(index).value();
}

std::vector<RangeQuery> MustGenerateWorkload(const Table& table,
                                             const WorkloadParams& params) {
  auto queries = GenerateWorkload(table, params);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 queries.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(queries).value();
}

}  // namespace bench
}  // namespace incdb
