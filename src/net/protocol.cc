#include "net/protocol.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/crc32.h"

namespace cpdb::net {

namespace {

// Value coding tags (see the grammar in protocol.h).
constexpr uint8_t kValAbsent = 0;  ///< no payload: insert of the empty tree
constexpr uint8_t kValNull = 1;
constexpr uint8_t kValInt = 2;
constexpr uint8_t kValDouble = 3;
constexpr uint8_t kValString = 4;

/// Request-tag flag bit: a TraceContext follows the tag (protocol.h
/// grammar). Request types stay in the low 7 bits.
constexpr uint64_t kTraceFlag = 0x80;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void EncodeValue(const std::optional<tree::Value>& v, std::string* out) {
  if (!v.has_value()) {
    out->push_back(static_cast<char>(kValAbsent));
    return;
  }
  if (v->is_null()) {
    out->push_back(static_cast<char>(kValNull));
  } else if (v->is_int()) {
    out->push_back(static_cast<char>(kValInt));
    PutVarint64(out, ZigZag(v->AsInt()));
  } else if (v->is_double()) {
    out->push_back(static_cast<char>(kValDouble));
    uint64_t bits;
    double d = v->AsDouble();
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  } else {
    out->push_back(static_cast<char>(kValString));
    PutLengthPrefixed(out, v->AsString());
  }
}

bool DecodeValue(const std::string& in, size_t* pos,
                 std::optional<tree::Value>* out) {
  if (*pos >= in.size()) return false;
  uint8_t tag = static_cast<uint8_t>(in[*pos]);
  ++*pos;
  switch (tag) {
    case kValAbsent:
      out->reset();
      return true;
    case kValNull:
      *out = tree::Value();
      return true;
    case kValInt: {
      uint64_t z;
      if (!GetVarint64(in, pos, &z)) return false;
      *out = tree::Value(UnZigZag(z));
      return true;
    }
    case kValDouble: {
      if (*pos + 8 > in.size()) return false;
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
                << (8 * i);
      }
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, sizeof d);
      *out = tree::Value(d);
      return true;
    }
    case kValString: {
      std::string s;
      if (!GetLengthPrefixed(in, pos, &s)) return false;
      *out = tree::Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

bool DecodePath(const std::string& in, size_t* pos, tree::Path* out) {
  std::string text;
  if (!GetLengthPrefixed(in, pos, &text)) return false;
  if (text.empty()) {
    *out = tree::Path();
    return true;
  }
  auto parsed = tree::Path::Parse(text);
  if (!parsed.ok()) return false;
  *out = std::move(parsed).value();
  return true;
}

}  // namespace

const char* ReqTypeName(ReqType t) {
  switch (t) {
    case ReqType::kPing:
      return "PING";
    case ReqType::kApply:
      return "APPLY";
    case ReqType::kCommit:
      return "COMMIT";
    case ReqType::kAbort:
      return "ABORT";
    case ReqType::kGetMod:
      return "GETMOD";
    case ReqType::kTraceBack:
      return "TRACEBACK";
    case ReqType::kGet:
      return "GET";
    case ReqType::kCheckpoint:
      return "CHECKPOINT";
    case ReqType::kDrain:
      return "DRAIN";
    case ReqType::kMetrics:
      return "METRICS";
    case ReqType::kTraces:
      return "TRACES";
    case ReqType::kExplain:
      return "EXPLAIN";
  }
  return "?";
}

bool IsReqType(uint64_t tag) {
  return tag >= static_cast<uint64_t>(ReqType::kPing) &&
         tag <= static_cast<uint64_t>(ReqType::kExplain) &&
         std::find(std::begin(kRetiredTags), std::end(kRetiredTags), tag) ==
             std::end(kRetiredTags);
}

const char* RespCodeName(RespCode c) {
  switch (c) {
    case RespCode::kOk:
      return "OK";
    case RespCode::kError:
      return "ERROR";
    case RespCode::kRetry:
      return "RETRY";
  }
  return "?";
}

void EncodeRequest(const Request& req, std::string* out) {
  uint64_t tag = static_cast<uint64_t>(req.type);
  if (req.trace.valid()) tag |= kTraceFlag;
  PutVarint64(out, tag);
  if (req.trace.valid()) {
    PutVarint64(out, req.trace.trace_id);
    PutVarint64(out, req.trace.parent_span_id);
    out->push_back(req.trace.sampled ? '\x01' : '\x00');
  }
  switch (req.type) {
    case ReqType::kApply:
      PutVarint64(out, static_cast<uint64_t>(req.update.kind));
      PutLengthPrefixed(out, req.update.target.ToString());
      PutLengthPrefixed(out, req.update.label);
      EncodeValue(req.update.value, out);
      PutLengthPrefixed(out, req.update.source.ToString());
      break;
    case ReqType::kGetMod:
    case ReqType::kTraceBack:
    case ReqType::kGet:
      PutLengthPrefixed(out, req.path.ToString());
      break;
    case ReqType::kExplain:
      PutVarint64(out, static_cast<uint64_t>(req.explain_verb));
      PutLengthPrefixed(out, req.path.ToString());
      break;
    default:
      break;  // no body
  }
}

Result<Request> DecodeRequest(const std::string& in) {
  size_t pos = 0;
  uint64_t tag;
  if (!GetVarint64(in, &pos, &tag)) {
    return Status::InvalidArgument("request: truncated type");
  }
  const bool has_trace = (tag & kTraceFlag) != 0;
  const uint64_t type = tag & ~kTraceFlag;
  if (!IsReqType(type)) {
    return Status::InvalidArgument("request: unknown type " +
                                   std::to_string(type));
  }
  Request req;
  req.type = static_cast<ReqType>(type);
  if (has_trace) {
    if (!GetVarint64(in, &pos, &req.trace.trace_id) ||
        !GetVarint64(in, &pos, &req.trace.parent_span_id)) {
      return Status::InvalidArgument("request: truncated trace context");
    }
    if (req.trace.trace_id == 0) {
      return Status::InvalidArgument("request: zero trace id");
    }
    if (pos >= in.size() ||
        static_cast<uint8_t>(in[pos]) > 1) {
      return Status::InvalidArgument("request: bad trace sampled flag");
    }
    req.trace.sampled = in[pos] == '\x01';
    ++pos;
  }
  switch (req.type) {
    case ReqType::kApply: {
      uint64_t kind;
      if (!GetVarint64(in, &pos, &kind) ||
          kind > static_cast<uint64_t>(update::OpKind::kCopy)) {
        return Status::InvalidArgument("APPLY: bad op kind");
      }
      req.update.kind = static_cast<update::OpKind>(kind);
      if (!DecodePath(in, &pos, &req.update.target)) {
        return Status::InvalidArgument("APPLY: bad target path");
      }
      if (!GetLengthPrefixed(in, &pos, &req.update.label)) {
        return Status::InvalidArgument("APPLY: bad label");
      }
      if (!DecodeValue(in, &pos, &req.update.value)) {
        return Status::InvalidArgument("APPLY: bad value");
      }
      if (!DecodePath(in, &pos, &req.update.source)) {
        return Status::InvalidArgument("APPLY: bad source path");
      }
      break;
    }
    case ReqType::kGetMod:
    case ReqType::kTraceBack:
    case ReqType::kGet:
      if (!DecodePath(in, &pos, &req.path)) {
        return Status::InvalidArgument(std::string(ReqTypeName(req.type)) +
                                       ": bad path");
      }
      break;
    case ReqType::kExplain: {
      uint64_t verb;
      if (!GetVarint64(in, &pos, &verb) ||
          (verb != static_cast<uint64_t>(ReqType::kGetMod) &&
           verb != static_cast<uint64_t>(ReqType::kTraceBack) &&
           verb != static_cast<uint64_t>(ReqType::kGet))) {
        return Status::InvalidArgument("EXPLAIN: bad verb");
      }
      req.explain_verb = static_cast<ReqType>(verb);
      if (!DecodePath(in, &pos, &req.path)) {
        return Status::InvalidArgument("EXPLAIN: bad path");
      }
      break;
    }
    default:
      break;
  }
  if (pos != in.size()) {
    return Status::InvalidArgument("request: trailing bytes");
  }
  return req;
}

void EncodeResponse(const Response& resp, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(resp.code));
  PutLengthPrefixed(out, resp.body);
}

Result<Response> DecodeResponse(const std::string& in) {
  size_t pos = 0;
  uint64_t code;
  if (!GetVarint64(in, &pos, &code)) {
    return Status::InvalidArgument("response: truncated code");
  }
  if (code > static_cast<uint64_t>(RespCode::kRetry)) {
    return Status::InvalidArgument("response: unknown code " +
                                   std::to_string(code));
  }
  Response resp;
  resp.code = static_cast<RespCode>(code);
  if (!GetLengthPrefixed(in, &pos, &resp.body)) {
    return Status::InvalidArgument("response: truncated body");
  }
  if (pos != in.size()) {
    return Status::InvalidArgument("response: trailing bytes");
  }
  return resp;
}

void EncodeTids(const std::vector<int64_t>& tids, std::string* out) {
  PutVarint64(out, tids.size());
  int64_t prev = 0;
  for (int64_t tid : tids) {
    PutVarint64(out, ZigZag(tid - prev));
    prev = tid;
  }
}

Result<std::vector<int64_t>> DecodeTids(const std::string& in) {
  size_t pos = 0;
  uint64_t n;
  if (!GetVarint64(in, &pos, &n)) {
    return Status::InvalidArgument("tids: truncated count");
  }
  // Every tid encodes to at least one byte: a larger count is hostile,
  // and reserving it would abort the process.
  if (n > in.size() - pos) {
    return Status::InvalidArgument("tids: count exceeds body");
  }
  std::vector<int64_t> tids;
  tids.reserve(n);
  int64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t z;
    if (!GetVarint64(in, &pos, &z)) {
      return Status::InvalidArgument("tids: truncated entry");
    }
    prev += UnZigZag(z);
    tids.push_back(prev);
  }
  if (pos != in.size()) return Status::InvalidArgument("tids: trailing bytes");
  return tids;
}

}  // namespace cpdb::net
