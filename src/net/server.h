#pragma once

#include <array>
#include <atomic>
#include <cstdint>
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
  /// TCP port, 0 to 65535; 0 binds an ephemeral port (port() reports the
  /// real one).
  int port = 0;
  /// Worker threads, 1 to kMaxWorkers. A commit occupies the worker that
  /// runs it until its cohort seals, so this is also the maximum number
  /// of transactions combining into one cohort from the network side.
  size_t workers = 4;
  static constexpr size_t kMaxWorkers = 256;
  /// Admission control: APPLY/COMMIT requests are answered with a typed
  /// RETRY (not executed, not queued) while more than this many
  /// committers are already waiting in the engine's commit queue.
  size_t max_queue_depth = 64;
  /// Per-connection response backlog before the server stops reading from
  /// that connection (a client that sends but never reads cannot pin
  /// server memory).
  size_t max_conn_outbuf = 4u << 20;
};

/// The TCP front end over service::Engine (README "Network service").
///
/// Leader/followers over one epoll set: the worker threads all wait in
/// epoll_wait on one epoll fd, where the listener and every connection
/// are armed EPOLLONESHOT. The worker that receives a connection's
/// readiness owns the connection until it re-arms it: it reads once, runs
/// each complete frame (net/frame.h) in pipeline order, sends each
/// response itself, and re-arms — EPOLLIN, plus EPOLLOUT while a response
/// backlog remains, and no EPOLLIN once the backlog reaches
/// max_conn_outbuf. So a request runs to completion on the thread that
/// read it, with no handoff, and one connection's requests never run
/// concurrently. Each connection leases a service::Session from the
/// SessionPool for its lifetime (so APPLY...COMMIT sequences have the
/// Editor's usual transaction semantics, and concurrent connections'
/// commits combine into group-commit cohorts exactly like in-process
/// sessions). A commit occupies its worker until the cohort seals; the
/// other workers keep serving the other connections.
///
/// Overload behaves, it does not stall: a deep commit queue gets typed
/// RETRY answers, a connection is read only as fast as its worker answers
/// it (parsed-but-unanswered bytes are at most one read per busy worker),
/// and a framing violation (torn/oversized/bit-flipped frame) yields one
/// typed ERROR response followed by connection close — never a crash and
/// never a partially applied message.
///
/// Once a commit's seal has failed, the engine is stopped
/// (service::Engine::Running): APPLY, COMMIT, ABORT, GETMOD, TRACEBACK,
/// GET and EXPLAIN answer its Unavailable error without touching the
/// connection's session, while PING, METRICS, TRACES, CHECKPOINT and
/// DRAIN still answer.
///
/// Graceful drain (SIGTERM -> BeginDrain): stop accepting, read nothing
/// new, answer every request already read and flush its response, close
/// connections, checkpoint the store under the exclusive latch, and
/// return from Wait(). The owner then closes the Database, releasing the
/// flock; a restarted server recovers to exactly the drained state.
class Server {
 public:
  /// Borrows `engine` and `pool`; both must outlive the server.
  Server(service::Engine* engine, service::SessionPool* pool,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the workers. Options out of range are
  /// InvalidArgument, refused before any descriptor or thread exists.
  Status Start();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// Begins a graceful drain. Async-signal-safe (one atomic store and one
  /// write to the wakeup eventfd), so a SIGTERM handler may call it
  /// directly. Idempotent.
  void BeginDrain();

  /// Blocks until the server has fully drained and all threads exited.
  void Wait();

  /// BeginDrain() + Wait().
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct Conn;

  /// One worker: waits in epoll_wait (no timeout) for one event at a time
  /// and handles it — a connection's readiness (Serve), the listener's
  /// (Accept), or the drain wakeup (OnWake). Returns once the drain is
  /// complete.
  void WorkerLoop();

  /// Accepts every pending connection and arms it for reading.
  void Accept() CPDB_EXCLUDES(mu_);

  /// Serves one readiness event of `conn`, which this worker owns until it
  /// re-arms or closes it: reads once (nothing while draining), runs each
  /// complete frame through ExecuteTraced in pipeline order, sends the
  /// responses, then re-arms the connection or closes it.
  void Serve(Conn* conn, uint32_t events) CPDB_EXCLUDES(mu_);

  /// Unregisters and closes `conn`, returning its session to the pool.
  /// During a drain the close that empties the connection map finishes
  /// the drain.
  void Close(Conn* conn) CPDB_EXCLUDES(mu_);

  /// The drain wakeup. The first worker to see it walks the connection
  /// map: it closes the listener and shuts every connection for reading,
  /// which hands each one to a worker that flushes and closes it. Returns
  /// true when this worker should exit (the drain is complete).
  bool OnWake() CPDB_EXCLUDES(mu_);

  /// Checkpoints the drained store, then releases every worker.
  void FinishDrain() CPDB_EXCLUDES(mu_);

  /// The tracing choke point every request goes through (the OBS-TRACE
  /// lint rule pins Serve to it): decides whether this request is
  /// collected — the client sampled it, it is an EXPLAIN, or the
  /// slow-request watch (--slow-ms) is armed for a write or read verb —
  /// and if so wraps Execute() in a root span ("server.<VERB>") under
  /// the request's TraceContext (minting a server-side trace id when the
  /// client sent none), then records the assembled span tree into the
  /// engine's SpanStore, counting a slow tree as a slow commit
  /// (APPLY/COMMIT) or a slow query. EXPLAIN answers with the tree
  /// inline. Runs on the worker serving `conn`, no server mutex held.
  Response ExecuteTraced(Conn* conn, const Request& req);

  /// Executes one request against the connection's session; returns the
  /// response. `tracer` (nullable) collects per-stage child spans. Runs
  /// on the worker serving `conn`, no server mutex held.
  Response Execute(Conn* conn, const Request& req,
                   obs::SpanCollector* tracer);

  /// Shared body of the three read verbs and EXPLAIN: runs `verb` (one of
  /// kGetMod / kTraceBack / kGet) at `path` against `s`, tracing the
  /// latch wait and the query execution (rows / round trips / modelled
  /// micros snapshotted from the session's CostModel) when `tracer` is
  /// set.
  Response ExecuteQuery(ReqType verb, const tree::Path& path,
                        service::Session* s, obs::SpanCollector* tracer);

  /// Registers the server's counters (connection/request totals, protocol
  /// violations, slow requests), the in-flight-bytes gauge and the
  /// per-verb latency histograms into the ENGINE's registry — one
  /// registry per engine is the whole point, so `METRICS` renders every
  /// layer's series together. Runs in Start(), before any worker exists;
  /// callbacks re-registered by a later Server replace this one's,
  /// counters and gauges carry on.
  void RegisterMetrics();

  service::Engine* engine_;
  service::SessionPool* pool_;
  ServerOptions options_;

  int port_ = 0;
  int epoll_fd_ = -1;
  /// eventfd in the epoll set, level-triggered: BeginDrain writes it, and
  /// once the drain is complete it is left readable so that every worker
  /// wakes and exits.
  int wake_fd_ = -1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  /// Per-verb request latency sinks, indexed by raw ReqType, and the
  /// server's registry counters. Filled in RegisterMetrics() before the
  /// workers start; read-only after.
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
  obs::Gauge* inflight_bytes_ = nullptr;  ///< bytes of requests executing

  /// Guards the connection map and the drain state — accept, close and
  /// the drain walk; never held while a request runs.
  mutable Mutex mu_;
  /// -1 once the drain has closed the listener.
  int listen_fd_ CPDB_GUARDED_BY(mu_) = -1;
  bool drain_walked_ CPDB_GUARDED_BY(mu_) = false;
  /// The drain is complete: every worker exits.
  bool stopped_ CPDB_GUARDED_BY(mu_) = false;
  /// fd -> connection. A connection is touched only by the worker that
  /// holds its readiness event (EPOLLONESHOT), under the Conn's own mutex.
  std::map<int, std::unique_ptr<Conn>> conns_ CPDB_GUARDED_BY(mu_);

  /// Last, after everything the workers use.
  std::vector<std::thread> workers_;
};

}  // namespace cpdb::net
