// cpdb_serve: the standalone network front end for a curated database.
//
// Opens (or creates) a durable store, mounts the relational curated
// target and the provenance backend over the SAME Database (so data and
// provenance recover together), attaches the multi-session engine, and
// serves the length-prefixed binary protocol of src/net/ on a TCP port.
// A store whose `data` table lacks its key index (one written by an older
// cpdb_serve) is refused at startup with exit status 1.
//
//   cpdb_serve --dir=serve-db --port=7170 --strategy=HT --workers=4
//
// Flags:
//   --dir=DIR              durable store directory ("" = in-memory, for
//                          smoke tests; nothing survives a restart)
//   --host=ADDR            bind address            (default 127.0.0.1)
//   --port=N               TCP port, 0..65535; 0 = ephemeral (default 7170)
//   --strategy=N|H|T|HT    provenance strategy     (default HT)
//   --workers=N            request worker threads, 1..256 (default 4)
//   --max-queue-depth=N    admission bound: RETRY writes while more than
//                          N >= 0 committers wait in the commit queue
//   --wipe                 remove --dir before opening (fresh start)
//
//   --slow-ms=X            APPLY/COMMIT and GETMOD/TRACEBACK/GET requests
//                          slower than X ms have their span tree captured
//                          in the trace store's slow ring (TRACES verb,
//                          "slow" array) and logged to stderr as one
//                          "cpdb slow-request:" JSON line (default 0 = off)
//
// A flag not listed here, a number that does not parse, a value outside
// those ranges, or any other strategy name exits 1 with a message and
// serves nothing. The port is the server's only socket: metrics are read
// through the METRICS verb (`cpdb_bench_client --mode=metrics`), traces
// through TRACES (README "Observability", OPERATOR_GUIDE.md).
//
// Shutdown: SIGTERM or SIGINT triggers the graceful drain — stop
// accepting, finish and flush every parsed request, checkpoint the store
// under the exclusive latch, close the Database (releasing its flock) —
// and the process exits 0. A restart then recovers bit-identical state,
// which the CI socket smoke test checks through the wire (GetMod/Get
// digests before SIGTERM == after restart). See OPERATOR_GUIDE.md.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "cpdb/cpdb.h"
#include "net/server.h"
#include "util/flags.h"

using namespace cpdb;

namespace {

/// --name as an int. A value past int's range is clamped to it rather
/// than wrapped, so the range checks downstream still refuse it.
int IntFlag(const Flags& flags, const std::string& name, int def) {
  return static_cast<int>(std::clamp<int64_t>(
      flags.GetInt(name, def), std::numeric_limits<int>::min(),
      std::numeric_limits<int>::max()));
}

/// The strategy whose short name is `s` (N, H, T or HT); false for any
/// other name.
bool ParseStrategy(const std::string& s, provenance::Strategy* out) {
  for (provenance::Strategy st :
       {provenance::Strategy::kNaive, provenance::Strategy::kHierarchical,
        provenance::Strategy::kTransactional,
        provenance::Strategy::kHierarchicalTransactional}) {
    if (s == provenance::StrategyShortName(st)) {
      *out = st;
      return true;
    }
  }
  return false;
}

/// The curated table every cpdb_serve instance fronts: one string key
/// plus four nullable string fields, so clients can exercise tuple
/// insert/update/delete through tree-shaped updates (ins {k:{}} into
/// T/data; ins {f1:v} into T/data/k; del ...). Must match what
/// cpdb_bench_client generates. Created with its key index, the unique
/// B-tree index on `id` through which replay finds each tuple.
relstore::Schema DataSchema() {
  return relstore::Schema({{"id", relstore::ColumnType::kString, false},
                           {"f1", relstore::ColumnType::kString, true},
                           {"f2", relstore::ColumnType::kString, true},
                           {"f3", relstore::ColumnType::kString, true},
                           {"f4", relstore::ColumnType::kString, true}});
}

net::Server* g_server = nullptr;  ///< for the signal handler only

extern "C" void HandleSignal(int) {
  // BeginDrain is async-signal-safe: one atomic store + one eventfd write.
  if (g_server != nullptr) g_server->BeginDrain();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Status usable = flags.Check({{"dir", Flags::Kind::kString},
                               {"host", Flags::Kind::kString},
                               {"port", Flags::Kind::kInt},
                               {"strategy", Flags::Kind::kString},
                               {"workers", Flags::Kind::kInt},
                               {"max-queue-depth", Flags::Kind::kInt},
                               {"wipe", Flags::Kind::kBool},
                               {"slow-ms", Flags::Kind::kDouble}});
  if (!usable.ok()) {
    std::fprintf(stderr, "cpdb_serve: %s\n", usable.message().c_str());
    return 1;
  }
  const std::string dir = flags.GetString("dir", "serve-db");
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = IntFlag(flags, "port", 7170);
  // Server::Start refuses an out-of-range port or worker count; the
  // strategy and the queue depth are checked here.
  service::SessionOptions sopts;
  const std::string strategy = flags.GetString("strategy", "HT");
  if (!ParseStrategy(strategy, &sopts.strategy)) {
    std::fprintf(stderr,
                 "cpdb_serve: unknown --strategy=%s (want N, H, T or HT)\n",
                 strategy.c_str());
    return 1;
  }
  const int64_t max_queue_depth = flags.GetInt("max-queue-depth", 64);
  if (max_queue_depth < 0) {
    std::fprintf(stderr, "cpdb_serve: --max-queue-depth=%lld is negative\n",
                 static_cast<long long>(max_queue_depth));
    return 1;
  }

  if (flags.GetBool("wipe", false) && !dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::unique_ptr<relstore::Database> db;
  if (dir.empty()) {
    db = std::make_unique<relstore::Database>("curated");
  } else {
    auto opened = relstore::Database::Open("curated", dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "cpdb_serve: open %s: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
  }
  if (!db->GetTable("data").ok()) {
    auto created = db->CreateTable("data", DataSchema());
    Status indexed =
        created.ok() ? wrap::RelationalTargetDb::CreateKeyIndex(*created)
                     : created.status();
    if (!indexed.ok()) {
      std::fprintf(stderr, "cpdb_serve: create table: %s\n",
                   indexed.ToString().c_str());
      return 1;
    }
    // Persist the DDL now: a server killed before its first commit must
    // still reopen with the schema on disk.
    if (db->durable()) (void)db->Sync();
  }

  provenance::ProvBackend backend(db.get());
  wrap::RelationalTargetDb target("T", db.get(),
                                  std::vector<std::string>{"data"});
  // A store written before tables carried their key index cannot serve:
  // refuse it at startup rather than at the first session.
  Status keyed = target.CheckKeyIndexes();
  if (!keyed.ok()) {
    std::fprintf(stderr, "cpdb_serve: %s: %s\n", dir.c_str(),
                 keyed.ToString().c_str());
    return 1;
  }
  service::Engine engine(&backend, &target);
  const double slow_ms = flags.GetDouble("slow-ms", 0);
  if (slow_ms > 0) engine.spans().SetSlowThresholdUs(slow_ms * 1000.0);
  service::SessionPool pool(&engine, sopts);

  net::ServerOptions nopts;
  nopts.host = host;
  nopts.port = port;
  nopts.workers = static_cast<size_t>(flags.GetInt("workers", 4));
  nopts.max_queue_depth = static_cast<size_t>(max_queue_depth);
  net::Server server(&engine, &pool, nopts);

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as send() errors

  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cpdb_serve: start: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("cpdb_serve: listening on %s:%d (dir=%s strategy=%s "
              "workers=%zu max-queue-depth=%zu)\n",
              host.c_str(), server.port(),
              dir.empty() ? "<in-memory>" : dir.c_str(),
              provenance::StrategyShortName(sopts.strategy), nopts.workers,
              nopts.max_queue_depth);
  std::fflush(stdout);

  server.Wait();  // until a drain completes (SIGTERM/SIGINT or DRAIN verb)
  g_server = nullptr;

  auto count = [&engine](const char* name) {
    return static_cast<unsigned long long>(
        engine.metrics().GetCounter(name, "")->Value());
  };
  std::printf("cpdb_serve: drained (conns=%llu requests=%llu retries=%llu "
              "bad_frames=%llu last_tid=%lld)\n",
              count("cpdb_connections_accepted_total"),
              count("cpdb_requests_total"), count("cpdb_retries_total"),
              count("cpdb_bad_frames_total"),
              static_cast<long long>(engine.LastAllocatedTid()));

  // The drain already checkpointed; Close releases the flock so a
  // restarted server can take ownership immediately.
  Status closed = db->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "cpdb_serve: close: %s\n", closed.ToString().c_str());
    return 1;
  }
  return 0;
}
