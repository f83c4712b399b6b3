// cpdb_serve: the standalone network front end for a curated database.
//
// Opens (or creates) a durable store, mounts the relational curated
// target and the provenance backend over the SAME Database (so data and
// provenance recover together), attaches the multi-session engine, and
// serves the length-prefixed binary protocol of src/net/ on a TCP port.
//
//   cpdb_serve --dir=serve-db --port=7170 --strategy=HT --workers=4
//
// Flags:
//   --dir=DIR              durable store directory ("" = in-memory, for
//                          smoke tests; nothing survives a restart)
//   --host=ADDR            bind address            (default 127.0.0.1)
//   --port=N               TCP port; 0 = ephemeral (default 7170)
//   --strategy=N|H|T|HT    provenance strategy     (default HT)
//   --workers=N            request worker threads  (default 4)
//   --max-queue-depth=N    admission bound: RETRY writes while more than
//                          N committers wait in the commit queue
//   --max-inflight-mb=N    global parsed-request byte budget before the
//                          event loop stops reading (TCP backpressure)
//   --wipe                 remove --dir before opening (fresh start)
//
// Observability flags (README "Observability", OPERATOR_GUIDE.md):
//   --metrics-port=N       serve Prometheus text exposition as plain HTTP
//                          GET /metrics on this port (0 = ephemeral;
//                          default -1 = off). The METRICS wire verb
//                          returns the same render without this flag.
//   --slow-ms=X            APPLY/COMMIT and GETMOD/TRACEBACK/GET requests
//                          slower than X ms have their span tree captured
//                          in the trace store's slow ring (TRACES verb,
//                          "slow" array) and logged to stderr as one
//                          "cpdb slow-request:" JSON line (default 0 = off)
//   --metrics-json=PATH    sample the registry every --metrics-interval-ms
//                          (default 1000) and, at drain, write the window
//                          deltas to PATH in the bench harness --json
//                          schema (bench "serve_report")
//
// Shutdown: SIGTERM or SIGINT triggers the graceful drain — stop
// accepting, finish and flush every parsed request, checkpoint the store
// under the exclusive latch, close the Database (releasing its flock) —
// and the process exits 0. A restart then recovers bit-identical state,
// which the CI socket smoke test checks through the wire (GetMod/Get
// digests before SIGTERM == after restart). See OPERATOR_GUIDE.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "cpdb/cpdb.h"
#include "harness.h"
#include "net/metrics_http.h"
#include "net/server.h"
#include "obs/report.h"
#include "util/flags.h"

using namespace cpdb;

namespace {

provenance::Strategy ParseStrategy(const std::string& s) {
  if (s == "N") return provenance::Strategy::kNaive;
  if (s == "H") return provenance::Strategy::kHierarchical;
  if (s == "T") return provenance::Strategy::kTransactional;
  return provenance::Strategy::kHierarchicalTransactional;
}

/// The curated table every cpdb_serve instance fronts: one string key
/// plus four nullable string fields, so clients can exercise tuple
/// insert/update/delete through tree-shaped updates (ins {k:{}} into
/// T/data; ins {f1:v} into T/data/k; del ...). Must match what
/// cpdb_bench_client generates.
relstore::Schema DataSchema() {
  return relstore::Schema({{"id", relstore::ColumnType::kString, false},
                           {"f1", relstore::ColumnType::kString, true},
                           {"f2", relstore::ColumnType::kString, true},
                           {"f3", relstore::ColumnType::kString, true},
                           {"f4", relstore::ColumnType::kString, true}});
}

net::Server* g_server = nullptr;  ///< for the signal handler only

extern "C" void HandleSignal(int) {
  // BeginDrain is async-signal-safe: one atomic store + one pipe write.
  if (g_server != nullptr) g_server->BeginDrain();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dir = flags.GetString("dir", "serve-db");
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = static_cast<int>(flags.GetInt("port", 7170));

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
    if (!created.ok()) {
      std::fprintf(stderr, "cpdb_serve: create table: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    // Persist the DDL now: a server killed before its first commit must
    // still reopen with the schema on disk.
    if (db->durable()) (void)db->Sync();
  }

  provenance::ProvBackend backend(db.get());
  wrap::RelationalTargetDb target("T", db.get(),
                                  std::vector<std::string>{"data"});
  service::Engine engine(&backend, &target);
  const double slow_ms = flags.GetDouble("slow-ms", 0);
  if (slow_ms > 0) engine.spans().SetSlowThresholdUs(slow_ms * 1000.0);
  service::SessionOptions sopts;
  sopts.strategy = ParseStrategy(flags.GetString("strategy", "HT"));
  service::SessionPool pool(&engine, sopts);

  net::ServerOptions nopts;
  nopts.host = host;
  nopts.port = port;
  nopts.workers = static_cast<size_t>(flags.GetInt("workers", 4));
  nopts.max_queue_depth =
      static_cast<size_t>(flags.GetInt("max-queue-depth", 64));
  nopts.max_inflight_bytes =
      static_cast<size_t>(flags.GetInt("max-inflight-mb", 8)) << 20;
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

  // Observability sidecars: the HTTP scrape endpoint and the periodic
  // JSON reporter both read the engine's registry — the same objects the
  // STATS and METRICS verbs render.
  const int metrics_port = static_cast<int>(flags.GetInt("metrics-port", -1));
  std::unique_ptr<net::MetricsHttpServer> metrics_http;
  if (metrics_port >= 0) {
    metrics_http = std::make_unique<net::MetricsHttpServer>(&engine.metrics(),
                                                            host, metrics_port);
    Status ms = metrics_http->Start();
    if (!ms.ok()) {
      std::fprintf(stderr, "cpdb_serve: metrics: %s\n", ms.ToString().c_str());
      return 1;
    }
  }
  const std::string metrics_json = flags.GetString("metrics-json", "");
  std::unique_ptr<obs::Reporter> reporter;
  if (!metrics_json.empty()) {
    reporter = std::make_unique<obs::Reporter>(
        &engine.metrics(), flags.GetInt("metrics-interval-ms", 1000));
    reporter->Start();
  }

  std::printf("cpdb_serve: listening on %s:%d (dir=%s strategy=%s "
              "workers=%zu max-queue-depth=%zu)\n",
              host.c_str(), server.port(),
              dir.empty() ? "<in-memory>" : dir.c_str(),
              provenance::StrategyShortName(sopts.strategy), nopts.workers,
              nopts.max_queue_depth);
  if (metrics_http != nullptr) {
    std::printf("cpdb_serve: metrics on http://%s:%d/metrics\n", host.c_str(),
                metrics_http->port());
  }
  std::fflush(stdout);

  server.Wait();  // until a drain completes (SIGTERM/SIGINT or DRAIN verb)
  g_server = nullptr;
  if (metrics_http != nullptr) metrics_http->Stop();
  if (reporter != nullptr) {
    reporter->Stop();  // folds the final partial window
    std::string doc = "{\"bench\":\"serve_report\"";
    doc += "," + bench::JsonReport::MetaFragment();
    bench::JsonDict cfg;
    cfg.Set("host", host)
        .Set("port", server.port())
        .Set("workers", nopts.workers)
        .Set("interval_ms",
             static_cast<int64_t>(flags.GetInt("metrics-interval-ms", 1000)));
    doc += ",\"config\":" + cfg.ToString() + ",\"rows\":[";
    const std::vector<std::string> rows = reporter->Rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) doc += ",";
      doc += rows[i];
    }
    doc += "]}\n";
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("cpdb_serve: metrics report written to %s\n",
                  metrics_json.c_str());
    } else {
      std::fprintf(stderr, "cpdb_serve: cannot write %s\n",
                   metrics_json.c_str());
    }
  }

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
