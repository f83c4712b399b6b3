#include "net/client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cpdb::net {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, deterministic — trace ids and
/// backoff jitter both want "different every time, same every run".
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t RetryBackoffMs(const RetryPolicy& policy, size_t attempt,
                        uint64_t salt) {
  if (attempt == 0) attempt = 1;
  // Capped exponential: base * 2^(attempt-1), saturating well before the
  // shift could overflow.
  uint64_t ms = policy.base_backoff_ms;
  for (size_t i = 1; i < attempt && ms < policy.max_backoff_ms; ++i) ms *= 2;
  if (ms > policy.max_backoff_ms) ms = policy.max_backoff_ms;
  // +/-25% deterministic jitter so shed clients don't retry in lockstep.
  uint64_t h = Mix64(policy.jitter_seed ^ Mix64(salt ^ attempt));
  uint64_t quarter = ms / 4;
  if (quarter > 0) ms = ms - quarter + h % (2 * quarter + 1);
  return ms;
}

Client::~Client() { Close(); }

Status Client::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad server address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    Close();
    return st;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inflight_ = 0;
  // A torn partial frame (or a poisoned reader) from the old transport
  // must not bleed into the next connection's stream.
  reader_ = FrameReader(kMaxFramePayload);
}

bool Client::Traceable(ReqType t) {
  switch (t) {
    case ReqType::kGetMod:
    case ReqType::kTraceBack:
    case ReqType::kGet:
    case ReqType::kCommit:
      return true;
    default:
      return false;
  }
}

Status Client::Send(const Request& req) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string payload;
  bool encoded = false;
  if (trace_every_n_ > 0 && Traceable(req.type) && !req.trace.valid()) {
    if (++trace_seq_ % trace_every_n_ == 0) {
      Request stamped = req;
      // Clear the high bit — that space is the server's (MintTraceId) —
      // and keep the id nonzero (zero means "no trace" on the wire).
      uint64_t id = Mix64(trace_seed_ ^ Mix64(trace_seq_)) &
                    ~(uint64_t{1} << 63);
      if (id == 0) id = 1;
      stamped.trace.trace_id = id;
      stamped.trace.parent_span_id = 0;
      stamped.trace.sampled = true;
      last_trace_id_ = id;
      EncodeRequest(stamped, &payload);
      encoded = true;
    }
  }
  if (!encoded) EncodeRequest(req, &payload);
  Status st = WriteFrame(fd_, payload);
  if (st.ok()) ++inflight_;
  return st;
}

Result<Response> Client::Recv() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (inflight_ == 0) {
    return Status::FailedPrecondition("no request in flight");
  }
  std::string payload;
  CPDB_RETURN_IF_ERROR(ReadFrame(fd_, &reader_, &payload));
  --inflight_;
  return DecodeResponse(payload);
}

Result<Response> Client::Call(const Request& req) {
  CPDB_RETURN_IF_ERROR(Send(req));
  return Recv();
}

Status Client::ToStatus(const Response& resp) {
  switch (resp.code) {
    case RespCode::kOk:
      return Status::OK();
    case RespCode::kRetry:
      return Status::Unavailable("RETRY: " + resp.body);
    case RespCode::kError:
      return Status::Internal(resp.body);
  }
  return Status::Internal("bad response code");
}

Status Client::Ping() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Ping()));
  return ToStatus(resp);
}

Status Client::Apply(const update::Update& u) {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Apply(u)));
  return ToStatus(resp);
}

Status Client::Commit() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Commit()));
  return ToStatus(resp);
}

Status Client::Abort() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Abort()));
  return ToStatus(resp);
}

Result<std::vector<int64_t>> Client::GetMod(const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::GetMod(p)));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return DecodeTids(resp.body);
}

Result<std::string> Client::TraceBack(const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::TraceBack(p)));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return std::move(resp.body);
}

Result<std::string> Client::Get(const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Get(p)));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return std::move(resp.body);
}

Result<std::string> Client::Metrics() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Metrics()));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return std::move(resp.body);
}

Result<std::string> Client::Traces() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Traces()));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return std::move(resp.body);
}

Result<std::string> Client::Explain(ReqType verb, const tree::Path& p) {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Explain(verb, p)));
  CPDB_RETURN_IF_ERROR(ToStatus(resp));
  return std::move(resp.body);
}

Status Client::Checkpoint() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Checkpoint()));
  return ToStatus(resp);
}

Status Client::Drain() {
  CPDB_ASSIGN_OR_RETURN(Response resp, Call(Request::Drain()));
  return ToStatus(resp);
}

}  // namespace cpdb::net
