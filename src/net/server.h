#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "service/engine.h"
#include "service/session.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cpdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (port() reports the real one).
  int port = 0;
  /// Request-executing worker threads. Commits block in the group-commit
  /// queue, so this is also the maximum number of transactions combining
  /// into one cohort from the network side.
  size_t workers = 4;
  /// Admission control: APPLY/COMMIT requests are answered with a typed
  /// RETRY (not executed, not queued) while more than this many
  /// committers are already waiting in the engine's commit queue.
  size_t max_queue_depth = 64;
  /// Admission control: total bytes of parsed-but-unanswered requests the
  /// server holds across all connections. At the cap the event loop stops
  /// reading (TCP backpressure) instead of buffering without bound.
  size_t max_inflight_bytes = 8u << 20;
  /// Per-connection pipelining bound: parsed-but-unanswered requests on
  /// one connection before the loop stops reading from it.
  size_t max_conn_pending = 128;
  /// Per-connection response backlog before the loop stops reading from
  /// that connection (a client that sends but never reads cannot pin
  /// server memory).
  size_t max_conn_outbuf = 4u << 20;
};

/// The TCP front end over service::Engine (README "Network service").
///
/// One poll(2) event loop thread owns every socket: it accepts
/// connections, assembles frames (net/frame.h), and flushes responses; it
/// never executes a request, so a slow commit can never stall accepts or
/// other connections' IO. A small worker pool executes requests; each
/// connection's requests run in pipeline order on at most one worker at a
/// time, against a service::Session leased from the SessionPool for the
/// connection's lifetime (so APPLY...COMMIT sequences have the Editor's
/// usual transaction semantics, and concurrent connections' commits
/// combine into group-commit cohorts exactly like in-process sessions).
///
/// Overload behaves, it does not stall (ISSUE 7): a deep commit queue
/// gets typed RETRY answers, global in-flight bytes and per-connection
/// pipelining are bounded by reading no further (TCP backpressure), and a
/// framing violation (torn/oversized/bit-flipped frame) yields one typed
/// ERROR response followed by connection close — never a crash and never
/// a partially applied message.
///
/// Graceful drain (SIGTERM -> BeginDrain): stop accepting, stop reading,
/// finish every parsed request and flush its response, close connections,
/// checkpoint the store under the exclusive latch, and return from
/// Wait(). The owner then closes the Database, releasing the flock; a
/// restarted server recovers to exactly the drained state.
class Server {
 public:
  /// Borrows `engine` and `pool`; both must outlive the server.
  Server(service::Engine* engine, service::SessionPool* pool,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop and workers.
  Status Start();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// Begins a graceful drain. Async-signal-safe (one write to the wakeup
  /// pipe), so a SIGTERM handler may call it directly. Idempotent.
  void BeginDrain();

  /// Blocks until the server has fully drained and all threads exited.
  void Wait();

  /// BeginDrain() + Wait().
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct Conn;

  void EventLoop();
  void WorkerLoop();

  /// The tracing choke point every request goes through (the OBS-TRACE
  /// lint rule pins WorkerLoop to it): decides whether this request is
  /// collected — the client sampled it, it is an EXPLAIN, or the
  /// slow-request watch (--slow-ms) is armed for a write or read verb —
  /// and if so wraps Execute() in a root span ("server.<VERB>") under
  /// the request's TraceContext (minting a server-side trace id when the
  /// client sent none), then records the assembled span tree into the
  /// engine's SpanStore, counting a slow tree as a slow commit
  /// (APPLY/COMMIT) or a slow query. EXPLAIN answers with the tree
  /// inline. Runs on a worker thread, no server mutex held.
  Response ExecuteTraced(Conn* conn, const Request& req,
                         std::unique_ptr<service::Session>* session);

  /// Executes one request against the connection's session; returns the
  /// response. `tracer` (nullable) collects per-stage child spans. Runs
  /// on a worker thread, no server mutex held.
  Response Execute(Conn* conn, const Request& req,
                   std::unique_ptr<service::Session>* session,
                   obs::SpanCollector* tracer);

  /// Shared body of the three read verbs and EXPLAIN: runs `verb` (one of
  /// kGetMod / kTraceBack / kGet) at `path` against `s`, tracing the
  /// latch wait and the query execution (rows / round trips / modelled
  /// micros snapshotted from the session's CostModel) when `tracer` is
  /// set.
  Response ExecuteQuery(ReqType verb, const tree::Path& path,
                        service::Session* s, obs::SpanCollector* tracer);

  /// Parses newly read bytes of `conn` into pending requests; handles
  /// framing violations. Called from the event loop with mu_ held.
  void ParseFrames(Conn* conn) CPDB_REQUIRES(mu_);

  /// True while the loop should keep POLLIN interest on `conn`.
  bool WantRead(const Conn& conn) const CPDB_REQUIRES(mu_);

  /// Wakes the event loop (one byte down the self-pipe).
  void WakeLoop();

  /// Registers the server's counters (connection/request totals, protocol
  /// violations), scrape-time callbacks (pool counters, in-flight bytes)
  /// and the per-verb latency histograms into the ENGINE's registry —
  /// one registry per engine is the whole point, so `STATS`, `METRICS`,
  /// and `/metrics` all read the same objects. Runs in Start(), before
  /// any worker exists; callbacks re-registered by a later Server
  /// replace this one's, counters carry on.
  void RegisterMetrics();

  /// Renders the flat stats object from the engine registry. The field
  /// names are the OPERATOR_GUIDE contract; they live in the registry's
  /// json_key column now, so STATS cannot drift from METRICS.
  std::string StatsJson();

  service::Engine* engine_;
  service::SessionPool* pool_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::thread loop_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  /// Per-verb request latency sinks, indexed by raw ReqType, and the
  /// server's registry counters. Filled in RegisterMetrics() before the
  /// loop and workers start; read-only after.
  std::array<obs::Histogram*, static_cast<size_t>(ReqType::kExplain) + 1>
      verb_us_{};
  obs::Counter* accepted_ = nullptr;      ///< connections accepted
  obs::Counter* closed_ = nullptr;        ///< connections closed
  obs::Counter* requests_ = nullptr;      ///< requests executed (all types)
  obs::Counter* retries_ = nullptr;       ///< APPLY/COMMIT shed with RETRY
  obs::Counter* bad_frames_ = nullptr;    ///< CRC/length/varint violations
  obs::Counter* bad_requests_ = nullptr;  ///< well-framed, undecodable
  obs::Counter* slow_commits_ = nullptr;  ///< slow APPLY/COMMIT trees
  obs::Counter* slow_queries_ = nullptr;  ///< slow read trees

  mutable Mutex mu_;
  CondVar work_cv_;
  /// Connections with pending requests and no worker yet.
  std::deque<Conn*> work_ CPDB_GUARDED_BY(mu_);
  bool stop_workers_ CPDB_GUARDED_BY(mu_) = false;
  size_t inflight_bytes_ CPDB_GUARDED_BY(mu_) = 0;

  /// fd -> connection; owned and touched only by the event loop thread
  /// (workers reach connections exclusively through work_).
  std::map<int, std::unique_ptr<Conn>> conns_;
};

}  // namespace cpdb::net
