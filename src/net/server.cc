#include "net/server.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "query/trace.h"
#include "storage/durable.h"

namespace cpdb::net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

// GET renders trees canonically: children carrying an explicit null are
// omitted. A snapshot rebuilt from the relational store materializes
// NULL columns as null leaves, while a session that staged the same row
// in-memory never creates them; rendering both forms identically is
// what lets a digest taken before a drain compare bit-equal to one
// taken after the reopen.
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

}  // namespace

/// One TCP connection's state. Field ownership is split by thread:
/// `reader`/`out`/`out_off`/`eof` belong to the event loop alone; the
/// queues and flags below the marker are shared and guarded by the
/// server's mu_ (handed between the loop and the one worker that set
/// `busy`); `session` is stored under mu_ and moved out by the busy
/// worker for the duration of its run.
struct Server::Conn {
  int fd = -1;

  // Event-loop-thread only.
  FrameReader reader;
  std::string out;
  size_t out_off = 0;
  bool eof = false;

  // Guarded by Server::mu_.
  struct Pending {
    std::string payload;      ///< request payload (when !is_error)
    std::string error_frame;  ///< pre-encoded response (when is_error)
    bool is_error = false;
  };
  std::deque<Pending> pending;
  std::deque<std::string> done;  ///< encoded response frames, in order
  bool busy = false;
  bool closing = false;
  std::unique_ptr<service::Session> session;

  // Touched only by the worker currently holding `busy` (requests of one
  // connection never run concurrently), like the leased session itself.
  bool in_txn = false;    ///< an APPLY has been accepted since last C/A
  bool shed_txn = false;  ///< this transaction was shed; RETRY until C/A
};

Server::Server(service::Engine* engine, service::SessionPool* pool,
               ServerOptions options)
    : engine_(engine), pool_(pool), options_(std::move(options)) {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) Stop();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
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
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 256) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  CPDB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  CPDB_RETURN_IF_ERROR(SetNonBlocking(wake_rd_));
  CPDB_RETURN_IF_ERROR(SetNonBlocking(wake_wr_));

  RegisterMetrics();
  started_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { EventLoop(); });
  size_t n = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (wake_wr_ >= 0) {
    // Async-signal-safe: one write, EAGAIN (pipe full) is fine — the
    // loop polls with a timeout and rereads draining_ anyway.
    char b = 'D';
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
  }
}

void Server::Wait() {
  if (loop_.joinable()) loop_.join();
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
  auto counter = [&reg](const char* name, const char* help,
                        const char* json_key) {
    return reg.GetCounter(name, help, "", json_key);
  };
  auto cb = [&reg](const char* name, const char* help, bool monotonic,
                   std::function<double()> fn, const char* json_key) {
    reg.SetCallback(name, help, monotonic, std::move(fn), "", json_key);
  };
  cb("cpdb_server_draining", "1 while a graceful drain is in progress",
     false, [this] { return draining() ? 1.0 : 0.0; }, "draining");
  accepted_ = counter("cpdb_connections_accepted_total",
                      "Connections accepted", "accepted");
  closed_ = counter("cpdb_connections_closed_total", "Connections closed",
                    "closed");
  requests_ = counter("cpdb_requests_total", "Requests executed (all verbs)",
                      "requests");
  retries_ = counter("cpdb_retries_total", "Transactions shed with RETRY",
                     "retries");
  bad_frames_ = counter("cpdb_bad_frames_total",
                        "Framing violations (CRC/length/varint)",
                        "bad_frames");
  bad_requests_ = counter("cpdb_bad_requests_total",
                          "Well-framed but undecodable requests",
                          "bad_requests");
  // Registered by the engine (their STATS position); bumped here.
  slow_commits_ = reg.GetCounter("cpdb_slow_commits_total", "");
  slow_queries_ = reg.GetCounter("cpdb_slow_queries_total", "");
  cb("cpdb_inflight_bytes", "Parsed-but-unanswered request bytes held",
     false,
     [this] {
       MutexLock l(mu_);
       return static_cast<double>(inflight_bytes_);
     },
     "inflight_bytes");

  // Per-verb request latency: one labelled series timing ExecuteTraced
  // alone, recorded in WorkerLoop (decode, encode and the flush are not
  // in it). Data verbs also land in the flat JSON (the admin verbs would
  // be scrape-measuring-the-scraper noise there, but are still separable
  // in Prometheus). The retired tag gets no series.
  for (uint8_t t = static_cast<uint8_t>(ReqType::kPing);
       t <= static_cast<uint8_t>(ReqType::kExplain); ++t) {
    if (!IsReqType(t)) continue;
    ReqType type = static_cast<ReqType>(t);
    std::string verb = ReqTypeName(type);
    std::string json_key;
    switch (type) {
      case ReqType::kApply:
      case ReqType::kCommit:
      case ReqType::kAbort:
      case ReqType::kGetMod:
      case ReqType::kTraceBack:
      case ReqType::kGet: {
        json_key = "req_";
        for (char ch : verb) {
          json_key.push_back(
              static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
        }
        json_key += "_us";
        break;
      }
      default:
        break;  // admin verbs: Prometheus only
    }
    verb_us_[t] = reg.GetHistogram("cpdb_request_us",
                                   "Request execute latency by verb (us)",
                                   "verb=\"" + verb + "\"", json_key);
  }
}

void Server::WakeLoop() {
  char b = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

bool Server::WantRead(const Conn& conn) const {
  if (conn.closing) return false;
  if (conn.pending.size() >= options_.max_conn_pending) return false;
  if (inflight_bytes_ >= options_.max_inflight_bytes) return false;
  if (conn.out.size() - conn.out_off >= options_.max_conn_outbuf) {
    return false;
  }
  return true;
}

void Server::ParseFrames(Conn* conn) {
  for (;;) {
    std::string payload;
    FrameReader::Event ev = conn->reader.Next(&payload);
    if (ev == FrameReader::Event::kNeedMore) return;
    if (ev == FrameReader::Event::kFrame) {
      inflight_bytes_ += payload.size();
      Conn::Pending item;
      item.payload = std::move(payload);
      conn->pending.push_back(std::move(item));
    } else {
      // Framing violation: typed error, then close. The error rides the
      // pending queue as a pre-encoded response so it is answered after
      // the requests that preceded it, in pipeline order.
      bad_frames_->Inc();
      const char* what = ev == FrameReader::Event::kBadCrc ? "frame CRC mismatch"
                         : ev == FrameReader::Event::kTooLarge
                             ? "frame exceeds size limit"
                             : "malformed frame length";
      std::string resp_payload;
      EncodeResponse(Response::Error(std::string("protocol: ") + what),
                     &resp_payload);
      Conn::Pending item;
      item.is_error = true;
      EncodeFrame(resp_payload, &item.error_frame);
      conn->pending.push_back(std::move(item));
      conn->closing = true;
    }
    if (!conn->busy && !conn->pending.empty()) {
      conn->busy = true;
      work_.push_back(conn);
      work_cv_.NotifyOne();
    }
    if (conn->closing) return;  // reader is poisoned; stop parsing
  }
}

void Server::EventLoop() {
  std::vector<pollfd> pfds;
  std::vector<int> pfd_conn;  // parallel: fd of the conn at that index
  bool listen_closed = false;
  for (;;) {
    bool drain_now = draining_.load(std::memory_order_acquire);
    if (drain_now && !listen_closed) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      listen_closed = true;
    }

    // Move finished responses into the loop-owned output buffers.
    {
      MutexLock l(mu_);
      for (auto& [fd, c] : conns_) {
        (void)fd;
        while (!c->done.empty()) {
          c->out += c->done.front();
          c->done.pop_front();
        }
      }
    }

    // Flush what we can and reap closable connections.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* c = it->second.get();
      if (c->out_off < c->out.size() && !c->eof) {
        Status st = WriteAvailable(c->fd, c->out, &c->out_off);
        if (!st.ok()) {
          c->eof = true;  // peer gone; stop trying to flush
        }
        if (c->out_off == c->out.size()) {
          c->out.clear();
          c->out_off = 0;
        }
      }
      bool close_now = false;
      {
        MutexLock l(mu_);
        bool idle = !c->busy && c->pending.empty() && c->done.empty();
        bool flushed = c->out_off >= c->out.size();
        close_now = idle && (flushed || c->eof) &&
                    (c->closing || c->eof || drain_now);
      }
      if (close_now) {
        closed_->Inc();
        std::unique_ptr<service::Session> session;
        {
          MutexLock l(mu_);
          session = std::move(c->session);
        }
        if (session != nullptr) pool_->Release(std::move(session));
        ::close(c->fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }

    if (drain_now && conns_.empty()) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfd_conn.push_back(-1);
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(-2);
    }
    {
      MutexLock l(mu_);
      for (auto& [fd, c] : conns_) {
        short events = 0;
        if (!c->eof && !drain_now && WantRead(*c)) events |= POLLIN;
        if (c->out_off < c->out.size() && !c->eof) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
        pfd_conn.push_back(fd);
      }
    }

    int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
    if (rc < 0 && errno != EINTR) {
      std::fprintf(stderr, "cpdb_serve: poll: %s\n", std::strerror(errno));
      break;
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      short re = pfds[i].revents;
      if (re == 0) continue;
      if (pfd_conn[i] == -1) {
        char buf[256];
        while (::read(wake_rd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (pfd_conn[i] == -2) {
        for (;;) {
          int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          if (!SetNonBlocking(cfd).ok()) {
            ::close(cfd);
            continue;
          }
          int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          auto conn = std::make_unique<Conn>();
          conn->fd = cfd;
          conns_[cfd] = std::move(conn);
          accepted_->Inc();
        }
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        c->eof = true;
        MutexLock l(mu_);
        c->closing = true;
        continue;
      }
      if (re & POLLIN) {
        size_t n = 0;
        bool eof = false;
        Status st = ReadAvailable(c->fd, &c->reader, &n, &eof);
        if (!st.ok() || eof) {
          c->eof = c->eof || eof || !st.ok();
          MutexLock l(mu_);
          c->closing = true;
        }
        if (n > 0) {
          MutexLock l(mu_);
          ParseFrames(c);
        }
      }
      // POLLOUT is handled by the flush pass at the top of the loop.
    }
  }

  // Drained: no connections, no queued work. Stop the workers, then
  // checkpoint so recovery after this clean shutdown replays no log.
  {
    MutexLock l(mu_);
    stop_workers_ = true;
  }
  work_cv_.NotifyAll();
  Status cp = engine_->Checkpoint();
  if (!cp.ok()) {
    std::fprintf(stderr, "cpdb_serve: checkpoint on drain: %s\n",
                 cp.ToString().c_str());
  }
}

void Server::WorkerLoop() {
  for (;;) {
    Conn* c = nullptr;
    {
      MutexLock l(mu_);
      while (work_.empty() && !stop_workers_) work_cv_.Wait(mu_);
      if (work_.empty()) return;  // stop_workers_ set and queue dry
      c = work_.front();
      work_.pop_front();
    }
    std::unique_ptr<service::Session> session;
    {
      MutexLock l(mu_);
      session = std::move(c->session);
    }
    for (;;) {
      Conn::Pending item;
      {
        MutexLock l(mu_);
        if (c->pending.empty()) {
          c->session = std::move(session);
          c->busy = false;
          break;
        }
        item = std::move(c->pending.front());
        c->pending.pop_front();
      }
      std::string frame;
      bool close_after = false;
      if (item.is_error) {
        frame = std::move(item.error_frame);
      } else {
        Response resp;
        auto decoded = DecodeRequest(item.payload);
        if (!decoded.ok()) {
          resp = Response::Error(decoded.status().ToString());
          close_after = true;
          bad_requests_->Inc();
        } else {
          // Decoder guarantees the type is in range, so the verb index
          // is safe. Measured span: execute only (decode/encode/frame
          // are per-connection constants; queueing shows up in the
          // commit-stage histograms instead).
          const double start_us = obs::NowMicros();
          resp = ExecuteTraced(c, *decoded, &session);
          obs::Histogram* h = verb_us_[static_cast<size_t>(decoded->type)];
          if (h != nullptr) h->Record(obs::NowMicros() - start_us);
          requests_->Inc();
          if (resp.code == RespCode::kRetry) retries_->Inc();
        }
        std::string payload;
        EncodeResponse(resp, &payload);
        EncodeFrame(payload, &frame);
      }
      {
        MutexLock l(mu_);
        if (!item.is_error) inflight_bytes_ -= item.payload.size();
        c->done.push_back(std::move(frame));
        if (close_after) c->closing = true;
      }
      WakeLoop();
    }
  }
}

Response Server::ExecuteTraced(Conn* conn, const Request& req,
                               std::unique_ptr<service::Session>* session) {
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
    return Execute(conn, req, session, nullptr);
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
  Response resp = Execute(conn, req, session, &tracer);
  if (*session != nullptr) (*session)->set_trace(nullptr, 0);
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
                         std::unique_ptr<service::Session>* session,
                         obs::SpanCollector* tracer) {
  switch (req.type) {
    case ReqType::kPing:
      return Response::Ok("pong");
    case ReqType::kStats:
      return Response::Ok(StatsJson());
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

  // Admission control, transaction-atomic, BEFORE session acquisition:
  // the decision is made at a transaction's FIRST APPLY — while the
  // commit queue is deeper than the bound, the whole incoming
  // transaction is shed with typed RETRYs (every later APPLY and its
  // COMMIT included), so a pipelined client can never land a partially
  // admitted transaction. Deciding before Acquire matters: building a
  // session snapshots the target under a shared latch grant, which
  // would park this worker behind the very exclusive-latch saturation
  // the RETRY exists to dodge.
  if (req.type == ReqType::kApply) {
    if (conn->shed_txn) return Response::Retry("transaction shed");
    if (!conn->in_txn &&
        engine_->CommitQueueDepth() > options_.max_queue_depth) {
      conn->shed_txn = true;
      return Response::Retry("commit queue depth over limit");
    }
  } else if (req.type == ReqType::kCommit && conn->shed_txn) {
    conn->shed_txn = false;
    conn->in_txn = false;
    // Nothing of THIS transaction was staged (it was shed from its first
    // APPLY); the abort is defensive for any pre-shed leftovers.
    if (*session != nullptr) (void)(*session)->Abort();
    return Response::Retry("transaction shed");
  }

  // Everything below runs against the connection's session.
  if (*session == nullptr) {
    const uint64_t acquire_span =
        tracer != nullptr
            ? tracer->Open("session.acquire", tracer->root_span_id())
            : 0;
    auto acquired = pool_->Acquire();
    if (tracer != nullptr) tracer->Close(acquire_span);
    if (!acquired.ok()) {
      return Response::Error("session: " + acquired.status().ToString());
    }
    *session = std::move(*acquired);
  }
  service::Session* s = session->get();
  // Whatever commit unit this request runs (COMMIT for T/HT, APPLY for
  // N/H) opens its commit.execute span under the root; ExecuteTraced
  // detaches the collector again.
  if (tracer != nullptr) s->set_trace(tracer, tracer->root_span_id());

  switch (req.type) {
    case ReqType::kApply: {
      Status st = s->Apply(req.update);
      if (st.ok()) conn->in_txn = true;
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kCommit: {
      conn->in_txn = false;
      Status st = s->Commit();
      return st.ok() ? Response::Ok() : Response::Error(st.ToString());
    }
    case ReqType::kAbort: {
      conn->shed_txn = false;
      conn->in_txn = false;
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
      std::vector<int64_t> tids = std::move(*mods);
      std::sort(tids.begin(), tids.end());
      tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
      std::string body;
      EncodeTids(tids, &body);
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

std::string Server::StatsJson() { return engine_->metrics().RenderJson(); }

}  // namespace cpdb::net
