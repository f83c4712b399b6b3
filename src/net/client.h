#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "util/result.h"

namespace cpdb::net {

/// Client-side retry policy for typed RETRY answers (admission-control
/// sheds), for callers that run their own retry loop (cpdb_bench_client's
/// retry pass): capped exponential backoff with deterministic jitter. The
/// defaults give 2, 4, 8, ... ms doubling up to the cap — long enough for
/// a saturated commit queue to drain a cohort, short enough that a load
/// driver's tail latency stays bounded.
struct RetryPolicy {
  size_t max_attempts = 8;      ///< total tries, first included
  uint64_t base_backoff_ms = 2;
  uint64_t max_backoff_ms = 250;
  /// Seed for the jitter hash; give each connection its own so a fleet
  /// of shed clients does not retry in lockstep.
  uint64_t jitter_seed = 1;
};

/// Backoff before retry number `attempt` (1-based: the wait after the
/// first failure is attempt=1): base * 2^(attempt-1), capped, then
/// jittered deterministically by +/-25% from (seed, salt, attempt).
/// Exposed for the tests and for callers running their own retry loops.
uint64_t RetryBackoffMs(const RetryPolicy& policy, size_t attempt,
                        uint64_t salt);

/// Client connection to a cpdb_serve endpoint.
///
/// The transport is deliberately simple — one blocking TCP socket — but
/// requests and responses are decoupled so callers can *pipeline*: issue
/// up to `queue depth` Send() calls before draining responses with
/// Recv(), which is the PRISM-style client-side batching knob the load
/// driver sweeps. Responses arrive strictly in request order (the server
/// executes one connection's requests in pipeline order), so the caller
/// matches them by counting. Not thread-safe; one Client per thread.
///
/// Tracing: set_trace_sampling(N) arms deterministic 1-in-N sampling —
/// every Nth traceable request (the query verbs and COMMIT) is stamped
/// with a fresh TraceContext before encoding, and the server assembles a
/// span tree under that trace id, retrievable via Traces(). N=0 (the
/// default) stamps nothing and adds zero bytes to the wire.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Issues one request without waiting for its response. Increments the
  /// in-flight count; match responses by calling Recv() once per Send().
  /// When sampling is armed and `req` is a traceable verb without a
  /// trace context of its own, this stamps one (see set_trace_sampling).
  Status Send(const Request& req);

  /// Blocks for the next in-order response.
  Result<Response> Recv();

  /// Send + Recv for the callers that do not pipeline.
  Result<Response> Call(const Request& req);

  /// Arms 1-in-N deterministic trace sampling (0 disarms). The choice of
  /// which requests to sample is a simple modular counter — deterministic
  /// for tests and reproducible runs — and the minted trace ids are a
  /// hash of (seed, counter), never zero.
  void set_trace_sampling(uint64_t every_n, uint64_t seed = 1) {
    trace_every_n_ = every_n;
    trace_seed_ = seed;
  }

  /// Trace id stamped on the most recent sampled request (0 when none
  /// yet) — the handle a test or operator uses to find the trace in the
  /// TRACES dump.
  uint64_t last_trace_id() const { return last_trace_id_; }

  // ----- One-shot conveniences (no pipelining) -----------------------------

  /// OK iff the server answered the ping.
  Status Ping();
  Status Apply(const update::Update& u);
  Status Commit();
  Status Abort();
  Result<std::vector<int64_t>> GetMod(const tree::Path& p);
  Result<std::string> TraceBack(const tree::Path& p);
  /// Deterministic rendering of the subtree at `p` in the server-side
  /// session's snapshot ("<absent>" if no such node).
  Result<std::string> Get(const tree::Path& p);
  /// Full metrics registry in Prometheus text exposition format.
  Result<std::string> Metrics();
  /// Assembled trace trees, slow commits and queries included (JSON; see
  /// obs::SpanStore::TracesJson).
  Result<std::string> Traces();
  /// Runs `verb` (one of kGetMod / kTraceBack / kGet) at `p` server-side
  /// and returns its span tree + cost counters as JSON instead of the
  /// query result.
  Result<std::string> Explain(ReqType verb, const tree::Path& p);
  Status Checkpoint();
  Status Drain();

 private:
  /// Maps a non-kOk response onto a Status (RETRY -> Unavailable,
  /// ERROR -> Internal), so the sync helpers stay terse.
  static Status ToStatus(const Response& resp);

  /// True for the verbs sampling applies to: the reads the span tree
  /// explains and the COMMIT whose queue stages link into it.
  static bool Traceable(ReqType t);

  int fd_ = -1;
  FrameReader reader_{kMaxFramePayload};
  size_t inflight_ = 0;

  uint64_t trace_every_n_ = 0;
  uint64_t trace_seed_ = 1;
  uint64_t trace_seq_ = 0;
  uint64_t last_trace_id_ = 0;
};

}  // namespace cpdb::net
