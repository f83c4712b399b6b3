#pragma once

#include <string>

#include "util/crc32.h"
#include "util/status.h"

namespace cpdb::net {

// Wire framing for the network service: every message travels as one
// frame of the shared codec in util/crc32.h (EncodeFrame / FrameReader),
//
//   varint(payload length) | crc32(payload, 4 bytes LE) | payload
//
// — the same frame the write-ahead log writes, with the wire's own bound
// on a payload. A frame that does not parse (truncated varint, oversized
// length, CRC mismatch) is a protocol violation: the peer must answer
// with a typed error where it still can and close the connection; it must
// never crash or apply a partial message (tests/net_test.cc).
//
// LINT NET-FRAMING: this file (and its .cc) is the ONLY place in src/net
// and tools/ allowed to move raw bytes over a socket (send/recv/
// ::read/::write). Everything else speaks in whole frames through the
// helpers below, so no unframed payload can ever reach the wire.

/// Hard ceiling on one frame's payload, the bound every wire FrameReader
/// is built with. Large enough for any realistic request/response (a
/// whole pipelined script fits in well under 1 MiB), small enough that a
/// hostile or corrupt length prefix cannot make the server allocate
/// unbounded memory.
inline constexpr size_t kMaxFramePayload = 8u << 20;  // 8 MiB

// ----- Socket transfer (the only raw send/recv in the tree) -----------------

/// Writes one whole frame around `payload` to `fd`, looping over partial
/// writes. Returns Unavailable on EPIPE/ECONNRESET, Internal otherwise.
Status WriteFrame(int fd, const std::string& payload);

/// Blocking read of one whole frame's payload from `fd` via `reader`.
/// Returns Unavailable on clean EOF mid-stream, InvalidArgument on a
/// framing violation (CRC, length, varint), Internal on socket errors.
Status ReadFrame(int fd, FrameReader* reader, std::string* payload);

/// Non-blocking-friendly single recv(2) into `reader`: reads whatever is
/// available (up to one internal buffer) and reports it via `*n_read`.
/// `*eof` is set when the peer closed or reset. Returns Internal on
/// socket errors (EAGAIN/EWOULDBLOCK/EINTR are reported as ok with
/// *n_read == 0).
Status ReadAvailable(int fd, FrameReader* reader, size_t* n_read, bool* eof);

/// Writes as much of `buf` starting at `*off` as the socket accepts
/// without blocking; advances `*off`. EAGAIN is ok (no progress); a hard
/// error (peer reset) returns non-ok.
Status WriteAvailable(int fd, const std::string& buf, size_t* off);

/// Sends `bytes` verbatim on a blocking socket — NO framing. WriteFrame
/// sends through it; otherwise fault-injection only: the robustness tests
/// use it to put torn, oversized, and bit-flipped garbage on the wire, and
/// being here keeps even deliberate violations inside this file's
/// NET-FRAMING jurisdiction.
Status WriteRaw(int fd, const std::string& bytes);

}  // namespace cpdb::net
