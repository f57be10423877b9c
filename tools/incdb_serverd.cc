// incdb_serverd — serve an incomplete database over TCP.
//
// Usage:
//   incdb_serverd --open=DIR  [--host=H] [--port=P] [--workers=N]
//                 [--queue=N]
//   incdb_serverd --csv=FILE [--index=bee|bre|bie|bsl|mc|hier|va|va+|scan]
//                 [...]
//
// Loads the database (a persisted store directory or a CSV), binds, and
// serves the versioned wire protocol (docs/SERVING.md) until SIGTERM or
// SIGINT, then drains gracefully: stops accepting, finishes every queued
// request, answers the waiting clients, and exits 0. Talk to it with
// `incdb_cli --connect=host:port "<predicate>"` or the C++ Client library
// (src/server/client.h).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/database.h"
#include "server/server.h"
#include "table/csv.h"

namespace incdb {
namespace {

// Async-signal context allows only lock-free flag writes; the main thread
// polls it and runs the actual drain.
std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int /*signum*/) { g_shutdown_requested = 1; }

struct DaemonOptions {
  std::string open_dir;
  std::string csv_path;
  std::string index = "auto";
  /// Run a background compactor; deletes are reclaimed while serving.
  bool compact = false;
  BackgroundCompactor::Options compactor;
  server::ServerOptions server;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: incdb_serverd --open=DIR  [--host=H] [--port=P] [--workers=N]"
      " [--queue=N]\n"
      "       incdb_serverd --csv=FILE "
      "[--index=bee|bre|bie|bsl|mc|hier|va|va+|scan] [...]\n"
      "       [--compact] [--compact-interval-ms=N]"
      " [--compact-min-deleted=N]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, DaemonOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--open=", 0) == 0) {
      options->open_dir = arg.substr(7);
    } else if (arg.rfind("--csv=", 0) == 0) {
      options->csv_path = arg.substr(6);
    } else if (arg.rfind("--index=", 0) == 0) {
      options->index = arg.substr(8);
    } else if (arg.rfind("--host=", 0) == 0) {
      options->server.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      options->server.port = static_cast<uint16_t>(std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--workers=", 0) == 0) {
      options->server.workers =
          static_cast<size_t>(std::atoll(arg.c_str() + 10));
    } else if (arg.rfind("--queue=", 0) == 0) {
      options->server.queue_capacity =
          static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg == "--compact") {
      options->compact = true;
    } else if (arg.rfind("--compact-interval-ms=", 0) == 0) {
      options->compact = true;
      options->compactor.interval_millis =
          static_cast<uint64_t>(std::atoll(arg.c_str() + 22));
    } else if (arg.rfind("--compact-min-deleted=", 0) == 0) {
      options->compact = true;
      options->compactor.min_deleted_rows =
          static_cast<uint64_t>(std::atoll(arg.c_str() + 22));
    } else {
      return false;
    }
  }
  // Exactly one data source.
  return options->open_dir.empty() != options->csv_path.empty();
}

Result<Database> LoadDatabase(const DaemonOptions& options) {
  if (!options.open_dir.empty()) {
    return Database::Open(options.open_dir, /*verify_checksums=*/true);
  }
  INCDB_ASSIGN_OR_RETURN(Table table, ReadCsv(options.csv_path));
  INCDB_ASSIGN_OR_RETURN(Database db, Database::FromTable(std::move(table)));
  if (options.index != "auto" && options.index != "scan") {
    INCDB_ASSIGN_OR_RETURN(const IndexKind kind,
                           IndexKindFromString(options.index));
    INCDB_RETURN_IF_ERROR(db.BuildIndex(kind));
  } else if (options.index == "auto") {
    // Default serving index: equality-encoded bitmaps answer both point
    // and range shapes and the planner falls back to a scan when beaten.
    INCDB_RETURN_IF_ERROR(db.BuildIndex(IndexKind::kBitmapEquality));
  }
  return db;
}

int Main(int argc, char** argv) {
  DaemonOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();

  auto db = LoadDatabase(options);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  auto server = server::Server::Start(&db.value(), options.server);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // Optional background compaction: reclaims deleted rows while serving
  // (readers never block; compaction publishes via the epoch swap).
  // Destroyed before the Database — declaration order matters here.
  std::unique_ptr<BackgroundCompactor> compactor;
  if (options.compact) {
    compactor =
        std::make_unique<BackgroundCompactor>(&db.value(), options.compactor);
    std::fprintf(stderr,
                 "# background compactor: every %llums once %llu row(s) "
                 "deleted\n",
                 static_cast<unsigned long long>(
                     options.compactor.interval_millis),
                 static_cast<unsigned long long>(
                     options.compactor.min_deleted_rows));
  }

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  std::fprintf(stderr, "# incdb_serverd listening on %s:%u (%s)\n",
               options.server.host.c_str(), (*server)->port(),
               db->table().Summary().c_str());

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "# draining...\n");
  const server::wire::ServerStats before = (*server)->StatsSnapshot();
  (*server)->Shutdown();
  const server::wire::ServerStats stats = (*server)->StatsSnapshot();
  std::fprintf(stderr,
               "# served %llu request(s) (%llu rejected overloaded, %llu "
               "shed expired, %llu queued at drain); bye\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected_overloaded),
               static_cast<unsigned long long>(stats.shed_expired),
               static_cast<unsigned long long>(before.queue_depth));
  return 0;
}

}  // namespace
}  // namespace incdb

int main(int argc, char** argv) { return incdb::Main(argc, argv); }
