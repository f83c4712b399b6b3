#include "net/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "query/trace.h"
#include "storage/durable.h"

namespace cpdb::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// GET renders trees canonically: children carrying an explicit null are
// omitted, as a snapshot rebuilt from the relational store omits a NULL
// column. The relational target refuses every write that would store one
// (`ins {f: null} into R/tid`, `ins {f: {}} into R/tid`, or a paste of a
// null leaf, an empty node or a subtree at a field answers
// InvalidArgument), so the session that staged a write and one rebuilt
// from the store hold the same fields, and a digest taken before a drain
// compares bit-equal to one taken after the reopen.
std::string RenderCanonical(const tree::Tree* t) {
  if (t->HasValue()) return t->ToString();
  std::string out = "{";
  bool first = true;
  for (const auto& [label, child] : t->children()) {
    if (child->HasValue() && child->value().is_null()) continue;
    if (!first) out += ", ";
    first = false;
    out += label + ": " + RenderCanonical(child.get());
  }
  out += "}";
  return out;
}

/// The typed error a framing violation is answered with.
const char* FramingError(FrameReader::Event ev) {
  switch (ev) {
    case FrameReader::Event::kBadCrc:
      return "frame CRC mismatch";
    case FrameReader::Event::kTooLarge:
      return "frame exceeds size limit";
    default:
      return "malformed frame length";
  }
}

// epoll tags of the two descriptors that are not connections (a
// connection's tag is its Conn*).
char wake_tag;
char listen_tag;

/// Adds (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `fd` for one event.
/// False (logged) when the kernel refuses, and `fd` is then not armed.
bool Arm(int epoll_fd, int op, int fd, uint32_t events, void* tag) {
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.ptr = tag;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) == 0) return true;
  std::fprintf(stderr, "cpdb_serve: epoll_ctl: %s\n", std::strerror(errno));
  return false;
}

}  // namespace

/// One TCP connection. It is touched only by the worker holding its
/// readiness event (EPOLLONESHOT hands it to one worker at a time), and
/// that worker holds `mu` while it serves, re-arm included. The mutex is
/// all but uncontended: it exists because the hand-over between workers
/// goes through an EPOLL_CTL_MOD re-arm, which ThreadSanitizer does not
/// model as synchronization, while the unlock/lock pair is.
struct Server::Conn {
  int fd = -1;
  Mutex mu;
  FrameReader reader{kMaxFramePayload};
  std::unique_ptr<service::Session> session;
  std::string out;        ///< encoded responses not yet sent
  size_t out_off = 0;     ///< bytes of `out` already sent
  bool closing = false;   ///< answered a violation; flush, then close
  bool shed_txn = false;  ///< T/HT transaction shed; RETRY until C/A
};

Server::Server(service::Engine* engine, service::SessionPool* pool,
               ServerOptions options)
    : engine_(engine), pool_(pool), options_(std::move(options)) {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Server::Start() {
  if (options_.workers < 1 || options_.workers > ServerOptions::kMaxWorkers) {
    return Status::InvalidArgument(
        "workers must be in [1, " +
        std::to_string(ServerOptions::kMaxWorkers) + "], got " +
        std::to_string(options_.workers));
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535], got " +
                                   std::to_string(options_.port));
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");
  epoll_event wake{};
  wake.events = EPOLLIN;  // level-triggered: a pending drain wakes everyone
  wake.data.ptr = &wake_tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake) < 0) {
    return Errno("epoll_ctl");
  }
  {
    MutexLock l(mu_);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen address " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      return Errno("bind");
    }
    if (::listen(listen_fd_, 256) < 0) return Errno("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
        0) {
      return Errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
    if (!Arm(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, &listen_tag)) {
      return Status::Internal("epoll_ctl: cannot arm the listener");
    }
  }

  RegisterMetrics();
  started_.store(true, std::memory_order_release);
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // A drain begun before the eventfd existed (a signal during start-up)
  // wrote nothing; deliver it now.
  if (draining()) BeginDrain();
  return Status::OK();
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

void Server::Wait() {
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Server::Stop() {
  BeginDrain();
  Wait();
}

void Server::RegisterMetrics() {
  obs::Registry& reg = engine_->metrics();
  reg.SetCallback("cpdb_server_draining",
                  "1 while a graceful drain is in progress", false,
                  [this] { return draining() ? 1.0 : 0.0; });
  accepted_ = reg.GetCounter("cpdb_connections_accepted_total",
                             "Connections accepted");
  closed_ = reg.GetCounter("cpdb_connections_closed_total",
                           "Connections closed");
  requests_ = reg.GetCounter("cpdb_requests_total",
                             "Requests executed (all verbs)");
  retries_ = reg.GetCounter("cpdb_retries_total",
                            "Transactions shed with RETRY");
  bad_frames_ = reg.GetCounter("cpdb_bad_frames_total",
                               "Framing violations (CRC/length/varint)");
  bad_requests_ = reg.GetCounter("cpdb_bad_requests_total",
                                 "Well-framed but undecodable requests");
  slow_commits_ = reg.GetCounter(
      "cpdb_slow_commits_total",
      "APPLY/COMMIT requests past the --slow-ms threshold");
  slow_queries_ = reg.GetCounter("cpdb_slow_queries_total",
                                 "Read requests past the --slow-ms threshold");
  inflight_bytes_ = reg.GetGauge("cpdb_inflight_bytes",
                                 "Request bytes being executed");

  // Per-verb request latency: one labelled series timing ExecuteTraced
  // alone, recorded in Serve (decode, encode and the send are not in
  // it). The retired tags get no series.
  for (uint8_t t = static_cast<uint8_t>(ReqType::kPing);
       t <= static_cast<uint8_t>(ReqType::kExplain); ++t) {
    if (!IsReqType(t)) continue;
    verb_us_[t] = reg.GetHistogram(
        "cpdb_request_us", "Request execute latency by verb (us)",
        std::string("verb=\"") + ReqTypeName(static_cast<ReqType>(t)) + "\"");
  }
}

void Server::WorkerLoop() {
  for (;;) {
    // One event per wait, so each ready connection goes to its own worker.
    epoll_event ev{};
    int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno != EINTR) {
      std::fprintf(stderr, "cpdb_serve: epoll_wait: %s\n",
                   std::strerror(errno));
      return;
    }
    if (n <= 0) continue;
    if (ev.data.ptr == &wake_tag) {
      if (OnWake()) return;
    } else if (ev.data.ptr == &listen_tag) {
      Accept();
    } else {
      Serve(static_cast<Conn*>(ev.data.ptr), ev.events);
    }
  }
}

void Server::Accept() {
  MutexLock l(mu_);
  if (listen_fd_ < 0) return;  // the drain closed the listener
  for (;;) {
    int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (cfd < 0) break;  // EAGAIN: the backlog is empty
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    conn->fd = cfd;
    Conn* c = conn.get();
    conns_[cfd] = std::move(conn);
    accepted_->Inc();
    if (!Arm(epoll_fd_, EPOLL_CTL_ADD, cfd, EPOLLIN, c)) {
      conns_.erase(cfd);
      ::close(cfd);
      closed_->Inc();
    }
  }
  Arm(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, EPOLLIN, &listen_tag);
}

void Server::Serve(Conn* c, uint32_t events) {
  const int fd = c->fd;
  {
    MutexLock l(c->mu);
    bool gone = false;  // the peer closed or reset; nobody reads answers
    if (!draining() && !c->closing && (events & (EPOLLIN | EPOLLERR))) {
      size_t n = 0;
      bool eof = false;
      gone = !ReadAvailable(fd, &c->reader, &n, &eof).ok() || eof;
    }
    auto flush = [&] {
      gone = !WriteAvailable(fd, c->out, &c->out_off).ok() || gone;
      if (c->out_off * 2 >= c->out.size()) {  // drop the sent prefix
        c->out.erase(0, c->out_off);
        c->out_off = 0;
      }
    };
    std::string payload;
    while (!gone && !c->closing) {
      FrameReader::Event ev = c->reader.Next(&payload);
      if (ev == FrameReader::Event::kNeedMore) break;
      Response resp;
      if (ev != FrameReader::Event::kFrame) {
        // Framing violation: a typed error after the answers to the
        // requests before it, then close (the reader is poisoned).
        bad_frames_->Inc();
        resp = Response::Error(std::string("protocol: ") + FramingError(ev));
        c->closing = true;
      } else if (auto req = DecodeRequest(payload); !req.ok()) {
        resp = Response::Error(req.status().ToString());
        bad_requests_->Inc();
        c->closing = true;
      } else {
        // The decoder guarantees the type is in range, so the verb index
        // is safe. Measured span: execute only (decode, encode and the
        // send are per-connection constants; queueing shows up in the
        // commit-stage histograms instead).
        const auto bytes = static_cast<int64_t>(payload.size());
        inflight_bytes_->Add(bytes);
        const double start_us = obs::NowMicros();
        resp = ExecuteTraced(c, *req);
        obs::Histogram* h = verb_us_[static_cast<size_t>(req->type)];
        if (h != nullptr) h->Record(obs::NowMicros() - start_us);
        inflight_bytes_->Add(-bytes);
        requests_->Inc();
        if (resp.code == RespCode::kRetry) retries_->Inc();
      }
      std::string encoded;
      EncodeResponse(resp, &encoded);
      EncodeFrame(encoded, &c->out);
      flush();
    }
    if (!gone && c->out_off < c->out.size()) flush();  // the EPOLLOUT case
    if (!gone) {
      // While closing or draining, only flush what is owed, then close.
      const size_t backlog = c->out.size() - c->out_off;
      uint32_t rearm = 0;
      if (backlog > 0) rearm |= EPOLLOUT;
      if (!c->closing && !draining() && backlog < options_.max_conn_outbuf) {
        rearm |= EPOLLIN;
      }
      // Re-armed still under mu: the next owner locks it before anything
      // else, so this unlock, not the re-arm, orders what the two touch.
      // After it another worker may own (or free) the connection.
      if (rearm != 0 && Arm(epoll_fd_, EPOLL_CTL_MOD, fd, rearm, c)) return;
    }
  }
  Close(c);
}

void Server::Close(Conn* c) {
  if (c->session != nullptr) pool_->Release(std::move(c->session));
  std::unique_ptr<Conn> owned;
  bool finish = false;
  {
    MutexLock l(mu_);
    auto it = conns_.find(c->fd);
    owned = std::move(it->second);
    conns_.erase(it);
    ::close(c->fd);  // also leaves the epoll set
    finish = drain_walked_ && conns_.empty();
  }
  closed_->Inc();
  if (finish) FinishDrain();
}

bool Server::OnWake() {
  {
    MutexLock l(mu_);
    if (stopped_) return true;
    // Consume the wakeup (EAGAIN if another worker already did), so idle
    // workers block again while the connections drain.
    uint64_t count = 0;
    [[maybe_unused]] ssize_t n = ::read(wake_fd_, &count, sizeof count);
    if (drain_walked_) return false;
    drain_walked_ = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Shutting a connection for reading makes it readable: an idle one is
    // handed to a worker now, a busy one when its worker re-arms it, and
    // either way that worker sees draining_, flushes and closes it.
    for (const auto& entry : conns_) ::shutdown(entry.first, SHUT_RD);
    if (!conns_.empty()) return false;
  }
  FinishDrain();
  return true;
}

void Server::FinishDrain() {
  // Drained: no connections, no request running. Checkpoint so recovery
  // after this clean shutdown replays no log.
  Status cp = engine_->Checkpoint();
  if (!cp.ok()) {
    std::fprintf(stderr, "cpdb_serve: checkpoint on drain: %s\n",
                 cp.ToString().c_str());
  }
  {
    MutexLock l(mu_);
    stopped_ = true;
  }
  // Left unread: the level-triggered wakeup reaches every worker.
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

Response Server::ExecuteTraced(Conn* conn, const Request& req) {
  // Collect when the client asked (sampled trace context), when the verb
  // itself is a collection request (EXPLAIN), or when the slow-request
  // watch is armed and this is a verb it covers: the writes and the
  // reads. Everything else takes the zero-overhead path: one lock-free
  // threshold load, then Execute with a null tracer.
  const bool write =
      req.type == ReqType::kApply || req.type == ReqType::kCommit;
  const bool slow_watched =
      (write || req.type == ReqType::kGetMod ||
       req.type == ReqType::kTraceBack || req.type == ReqType::kGet) &&
      engine_->spans().SlowThresholdUs() > 0;
  const bool explain = req.type == ReqType::kExplain;
  if (!req.trace.sampled && !explain && !slow_watched) {
    return Execute(conn, req, nullptr);
  }

  obs::TraceContext ctx = req.trace;
  if (!ctx.valid()) {
    // Server-initiated collection (slow-request watch, un-traced EXPLAIN):
    // mint an id so the tree is still assembled and retrievable.
    ctx.trace_id = engine_->MintTraceId();
    ctx.parent_span_id = 0;
  }
  obs::SpanCollector tracer(ctx);
  const uint64_t root = tracer.Open(
      std::string("server.") + ReqTypeName(req.type), ctx.parent_span_id,
      explain ? ReqTypeName(req.explain_verb) : "");
  Response resp = Execute(conn, req, &tracer);
  if (conn->session != nullptr) conn->session->set_trace(nullptr, 0);
  tracer.Close(root);
  std::vector<obs::Span> spans = tracer.Take();
  if (explain && resp.code == RespCode::kOk) {
    // EXPLAIN's answer IS the span tree; the query's own result is
    // discarded (run the plain verb for it).
    resp.body = obs::SpanStore::TreeJson(spans);
  }
  if (engine_->spans().Record(std::move(spans), ctx.sampled || explain)) {
    (write ? slow_commits_ : slow_queries_)->Inc();
  }
  return resp;
}

Response Server::Execute(Conn* conn, const Request& req,
                         obs::SpanCollector* tracer) {
  switch (req.type) {
    case ReqType::kPing:
      return Response::Ok("pong");
    case ReqType::kMetrics:
      return Response::Ok(engine_->metrics().RenderPrometheus());
    case ReqType::kTraces:
      return Response::Ok(engine_->spans().TracesJson());
    case ReqType::kCheckpoint: {
      Status st = engine_->Checkpoint();
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kDrain:
      BeginDrain();
      return Response::Ok("draining");
    default:
      break;
  }

  // A stopped engine (a failed commit seal) runs no session verb: its
  // shared state is ahead of the log. The admin verbs above still answer.
  if (Status st = engine_->Running(); !st.ok()) {
    return Response::Error(st.ToString());
  }

  // Admission control, transaction-atomic, BEFORE session acquisition:
  // the decision is made at a transaction's FIRST APPLY, i.e. one that
  // finds nothing staged — while the commit queue is deeper than the
  // bound, the whole incoming transaction is shed with typed RETRYs. A
  // T/HT transaction's every later APPLY and its COMMIT are shed with it,
  // so a pipelined client can never land a partially admitted
  // transaction; under N/H each APPLY is a whole transaction, so each
  // faces admission on its own and a shed ends with its APPLY. Deciding
  // before Acquire matters: building a session snapshots the target
  // under a shared latch grant, which would park this worker behind the
  // very exclusive-latch saturation the RETRY exists to dodge.
  if (req.type == ReqType::kApply) {
    if (conn->shed_txn) return Response::Retry("transaction shed");
    const bool in_txn = conn->session != nullptr &&
                        conn->session->editor()->PendingOps() > 0;
    if (!in_txn && engine_->CommitQueueDepth() > options_.max_queue_depth) {
      const provenance::Strategy strategy = pool_->strategy();
      conn->shed_txn =
          strategy == provenance::Strategy::kTransactional ||
          strategy == provenance::Strategy::kHierarchicalTransactional;
      return Response::Retry("commit queue depth over limit");
    }
  } else if (req.type == ReqType::kCommit && conn->shed_txn) {
    conn->shed_txn = false;
    // Nothing of THIS transaction was staged (it was shed from its first
    // APPLY); the abort is defensive for any pre-shed leftovers.
    if (conn->session != nullptr) (void)conn->session->Abort();
    return Response::Retry("transaction shed");
  }

  // Everything below runs against the connection's session.
  if (conn->session == nullptr) {
    const uint64_t acquire_span =
        tracer != nullptr
            ? tracer->Open("session.acquire", tracer->root_span_id())
            : 0;
    auto acquired = pool_->Acquire();
    if (tracer != nullptr) tracer->Close(acquire_span);
    if (!acquired.ok()) {
      return Response::Error("session: " + acquired.status().ToString());
    }
    conn->session = std::move(*acquired);
  }
  service::Session* s = conn->session.get();
  // Whatever commit unit this request runs (COMMIT for T/HT, APPLY for
  // N/H) opens its commit.execute span under the root; ExecuteTraced
  // detaches the collector again.
  if (tracer != nullptr) s->set_trace(tracer, tracer->root_span_id());

  switch (req.type) {
    case ReqType::kApply: {
      Status st = s->Apply(req.update);
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kCommit: {
      Status st = s->Commit();
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kAbort: {
      conn->shed_txn = false;
      Status st = s->Abort();
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kGetMod:
    case ReqType::kTraceBack:
    case ReqType::kGet:
      return ExecuteQuery(req.type, req.path, s, tracer);
    case ReqType::kExplain:
      return ExecuteQuery(req.explain_verb, req.path, s, tracer);
    default:
      return Response::Error("unhandled request type");
  }
}

Response Server::ExecuteQuery(ReqType verb, const tree::Path& path,
                              service::Session* s,
                              obs::SpanCollector* tracer) {
  const uint64_t parent =
      tracer != nullptr ? tracer->root_span_id() : 0;
  const uint64_t latch_span =
      tracer != nullptr ? tracer->Open("session.latch_wait", parent) : 0;
  auto guard = s->ReadLock();
  if (tracer != nullptr) tracer->Close(latch_span);

  uint64_t query_span = 0;
  relstore::CostSnapshot before;
  if (tracer != nullptr) {
    query_span = tracer->Open("query.execute", parent, path.ToString());
    before = s->cost().Snap();
    s->query()->set_tracer(tracer, query_span);
  }
  Response resp;
  switch (verb) {
    case ReqType::kGetMod: {
      auto mods = s->query()->GetMod(path);
      if (!mods.ok()) {
        resp = Response::Error(mods.status().ToString());
        break;
      }
      std::string body;
      EncodeTids(*mods, &body);  // GetMod answers ascending and distinct
      resp = Response::Ok(std::move(body));
      break;
    }
    case ReqType::kTraceBack: {
      auto traced = s->query()->TraceBack(path);
      if (!traced.ok()) {
        resp = Response::Error(traced.status().ToString());
        break;
      }
      std::string body;
      for (const auto& step : traced->steps) {
        body += "tid=" + std::to_string(step.tid);
        body += " op=";
        body.push_back(provenance::ProvOpChar(step.op));
        body += " loc=" + step.loc.ToString();
        if (step.op == provenance::ProvOp::kCopy) {
          body += " src=" + step.src.ToString();
        }
        body += "\n";
      }
      if (traced->origin_tid.has_value()) {
        body += "origin_tid=" + std::to_string(*traced->origin_tid) + "\n";
      }
      if (traced->external_src.has_value()) {
        body += "external_src=" + traced->external_src->ToString() +
                " external_tid=" + std::to_string(traced->external_tid) +
                "\n";
      }
      resp = Response::Ok(std::move(body));
      break;
    }
    case ReqType::kGet: {
      const tree::Tree* node = s->editor()->universe().Find(path);
      resp = node == nullptr ? Response::Ok("<absent>")
                             : Response::Ok(RenderCanonical(node));
      break;
    }
    default:
      resp = Response::Error("unhandled query verb");
      break;
  }
  if (tracer != nullptr) {
    s->query()->set_tracer(nullptr, 0);
    // The session CostModel is the modelled interaction cost (README
    // "Cost model"): the delta over this query is exactly what it
    // charged — rows fetched, backend calls (one per round trip), and
    // simulated micros.
    relstore::CostSnapshot after = s->cost().Snap();
    tracer->CloseWithCost(query_span,
                          static_cast<uint64_t>(after.rows - before.rows),
                          static_cast<uint64_t>(after.calls - before.calls),
                          after.micros - before.micros);
  }
  return resp;
}

}  // namespace cpdb::net
