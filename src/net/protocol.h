#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "tree/path.h"
#include "update/update.h"
#include "util/result.h"

namespace cpdb::net {

// The request/response vocabulary of the network service — what rides
// inside each frame (net/frame.h). All field coding uses the shared
// varint/length-prefixed helpers (util/crc32.h), so the wire format obeys
// the same discipline as the WAL and checkpoint files.
//
// Protocol grammar (README "Network service"):
//
//   frame    ::= varint(len) crc32 payload
//   request  ::= tag:varint [trace] body
//   tag      ::= type | 0x80 when a trace context follows
//   trace    ::= varint(trace_id) varint(parent_span_id) sampled:byte
//   body     ::= APPLY update | GETMOD path | TRACEBACK path | GET path
//              | EXPLAIN verb:varint lp(path)
//              | COMMIT | ABORT | PING | CHECKPOINT | DRAIN
//              | METRICS | TRACES
//   update   ::= kind:varint lp(target) lp(label) value lp(source)
//   value    ::= 0 | 1 | 2 zigzag | 3 f64le | 4 lp(bytes)
//   response ::= code:varint lp(body)
//
// The trace context is optional on EVERY verb (the 0x80 tag bit): a
// sampling client stamps it on the requests it wants traced, the server
// opens a span tree under that trace id (obs::SpanCollector), and the
// TRACES/EXPLAIN verbs read the assembled trees back — slow commits and
// slow queries included, in TRACES' "slow" array. trace_id must be
// nonzero (zero means "absent" everywhere else in the tracing layer).
//
// Transactions are per connection and implicit: the first APPLY after a
// COMMIT/ABORT begins the next transaction (exactly the Editor's model).

enum class ReqType : uint8_t {
  kPing = 1,
  kApply = 2,       ///< stage (T/HT) or group-commit (N/H) one update
  kCommit = 3,      ///< commit the staged transaction through the engine
  kAbort = 4,       ///< discard the staged transaction
  kGetMod = 5,      ///< Mod(p): tids that modified the subtree under p
  kTraceBack = 6,   ///< full backwards provenance walk from p
  kGet = 7,         ///< current subtree at p in this session's snapshot
  // 8 is retired (see kRetiredTags).
  kCheckpoint = 9,  ///< admin: checkpoint the store under the latch
  kDrain = 10,      ///< admin: begin graceful drain (like SIGTERM)
  kMetrics = 11,    ///< admin: full registry, Prometheus text exposition
  // 12 is retired (see kRetiredTags).
  kTraces = 13,     ///< admin: assembled trace trees as JSON
  kExplain = 14,    ///< run a GETMOD/TRACEBACK/GET, return its span tree
};

/// Tags of retired verbs: 8 named STATS, a JSON rendering of the metrics
/// that METRICS now exports alone, and 12 a slow-commit verb whose
/// records now live in TRACES. They stay unassigned, and the decoder
/// rejects them like any unknown tag, so an old client's request fails
/// with a typed error instead of meaning something else.
constexpr uint64_t kRetiredTags[] = {8, 12};

/// True for the tags of live request types: kPing..kExplain minus the
/// retired tags. The decoder's admission test, and the server's per-verb
/// metric loop.
bool IsReqType(uint64_t tag);

const char* ReqTypeName(ReqType t);

/// Response status. kRetry is the *typed overload answer*: the request
/// was not executed and the client should back off and retry — the
/// server sheds load instead of parking its workers behind a saturated
/// commit queue. A draining server answers nothing new; it closes its
/// connections instead. Any other code fails to decode.
enum class RespCode : uint8_t {
  kOk = 0,
  kError = 1,  ///< request executed or parsed with an error; body = status text
  kRetry = 2,  ///< shed by admission control; retry after backoff
};

const char* RespCodeName(RespCode c);

struct Request {
  ReqType type = ReqType::kPing;
  update::Update update;  ///< kApply
  tree::Path path;        ///< kGetMod / kTraceBack / kGet / kExplain
  /// Optional (trace.valid() == carried on the wire): the tracing
  /// identity the server's span tree is recorded under.
  obs::TraceContext trace;
  /// kExplain only: which query verb to run and explain (one of
  /// kGetMod / kTraceBack / kGet).
  ReqType explain_verb = ReqType::kGetMod;

  static Request Of(ReqType t) {
    Request req;
    req.type = t;
    return req;
  }
  static Request Ping() { return Of(ReqType::kPing); }
  static Request Apply(update::Update u) {
    Request req = Of(ReqType::kApply);
    req.update = std::move(u);
    return req;
  }
  static Request Commit() { return Of(ReqType::kCommit); }
  static Request Abort() { return Of(ReqType::kAbort); }
  static Request GetMod(tree::Path p) {
    Request req = Of(ReqType::kGetMod);
    req.path = std::move(p);
    return req;
  }
  static Request TraceBack(tree::Path p) {
    Request req = Of(ReqType::kTraceBack);
    req.path = std::move(p);
    return req;
  }
  static Request Get(tree::Path p) {
    Request req = Of(ReqType::kGet);
    req.path = std::move(p);
    return req;
  }
  static Request Checkpoint() { return Of(ReqType::kCheckpoint); }
  static Request Drain() { return Of(ReqType::kDrain); }
  static Request Metrics() { return Of(ReqType::kMetrics); }
  static Request Traces() { return Of(ReqType::kTraces); }
  static Request Explain(ReqType verb, tree::Path p) {
    Request req = Of(ReqType::kExplain);
    req.explain_verb = verb;
    req.path = std::move(p);
    return req;
  }
};

struct Response {
  RespCode code = RespCode::kOk;
  /// kOk: result payload (type-specific; see EncodeTids/DecodeTids for
  /// kGetMod, text for kMetrics/kTraceBack/kGet). Otherwise: the error text.
  std::string body;

  static Response Ok(std::string body = "") {
    return Response{RespCode::kOk, std::move(body)};
  }
  static Response Error(std::string msg) {
    return Response{RespCode::kError, std::move(msg)};
  }
  static Response Retry(std::string msg) {
    return Response{RespCode::kRetry, std::move(msg)};
  }
};

// Frame payload codecs. Decoders are strict: trailing bytes, truncated
// fields, or out-of-range tags fail (the robustness tests bit-flip these).
void EncodeRequest(const Request& req, std::string* out);
Result<Request> DecodeRequest(const std::string& in);
void EncodeResponse(const Response& resp, std::string* out);
Result<Response> DecodeResponse(const std::string& in);

/// GetMod result coding: varint count, then each tid as a varint delta
/// from the previous (tids are reported sorted ascending).
void EncodeTids(const std::vector<int64_t>& tids, std::string* out);
Result<std::vector<int64_t>> DecodeTids(const std::string& in);

}  // namespace cpdb::net
