#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cpdb {

/// CRC-32 (the IEEE 802.3 polynomial, reflected form 0xEDB88320 — the
/// checksum of zip/zlib/ethernet) over `n` bytes. Chain incremental
/// computations by passing the previous result as `seed`; a one-shot call
/// uses the default seed.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
uint32_t Crc32(const std::string& s);

// ----- Varint / fixed32 / length-prefixed coding -----------------------------
//
// LEB128-style base-128 varints, little-endian groups of 7 bits with the
// high bit as a continuation flag, and little-endian fixed32 — the coding
// of the write-ahead log, the checkpoint files (storage/), row images
// (relstore/datum.cc) and the frame below, shared here so every record
// format stays byte-identical across them.

/// Maximum encoded size of one 64-bit varint.
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Appends the varint encoding of `v` to `*out`.
void PutVarint64(std::string* out, uint64_t v);

/// Decodes one varint from `in` starting at `*pos`; advances `*pos` past
/// it. Returns false (leaving `*pos` untouched) on truncated or overlong
/// (> 10 byte) input.
bool GetVarint64(const std::string& in, size_t* pos, uint64_t* out);

/// Appends `v` as four bytes, least significant first.
inline void PutFixed32(std::string* out, uint32_t v) {
  const char buf[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(buf, 4);
}

/// Decodes four little-endian bytes at `*pos`; advances `*pos` past them.
/// Returns false (leaving `*pos` untouched) if fewer than four remain.
inline bool GetFixed32(const std::string& in, size_t* pos, uint32_t* out) {
  if (in.size() < 4 || *pos > in.size() - 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(in.data() + *pos);
  *out = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
  *pos += 4;
  return true;
}

/// Appends varint(size) followed by the bytes of `s`.
void PutLengthPrefixed(std::string* out, const std::string& s);

/// Decodes one length-prefixed string; advances `*pos` past it. Returns
/// false (leaving `*pos` untouched) if the length or payload is truncated.
bool GetLengthPrefixed(const std::string& in, size_t* pos, std::string* out);

// ----- Frame -----------------------------------------------------------------
//
// The one checksummed framing of the tree, used by the write-ahead log
// (storage/wal.cc, one frame per commit record) and the wire (net/frame.cc,
// one frame per message):
//
//   frame := varint(payload length) | fixed32 crc32(payload) | payload

/// Appends the frame encoding of `payload` to `*out`.
void EncodeFrame(const std::string& payload, std::string* out);

/// Incremental frame decoder: feed raw bytes in, take whole payloads out.
///
/// Usage: Append() whatever arrived, then call Next() until it returns
/// something other than kFrame. The reader buffers a partial frame across
/// Append() calls (kNeedMore), so torn reads are invisible to the caller;
/// kBadCrc/kTooLarge/kMalformed are terminal. What stays buffered is at
/// most one partial frame plus the last Append().
class FrameReader {
 public:
  enum class Event {
    kFrame,      ///< *payload holds one complete frame's payload
    kNeedMore,   ///< no complete frame buffered; feed more bytes
    kBadCrc,     ///< framed payload failed its checksum
    kTooLarge,   ///< length prefix exceeds the reader's bound
    kMalformed,  ///< length prefix is not a valid varint
  };

  /// A length prefix above `max_payload` is kTooLarge before any of its
  /// payload is buffered.
  explicit FrameReader(size_t max_payload) : max_payload_(max_payload) {}

  void Append(const char* data, size_t n);

  /// Extracts the next complete frame. After a terminal event the reader
  /// is poisoned and keeps returning that event.
  Event Next(std::string* payload);

  /// Bytes buffered but not yet consumed (partial frame).
  size_t buffered() const { return buf_.size() - pos_; }

  /// Bytes of every frame Next() has returned: the stream offset of the
  /// first byte not yet decoded into a frame.
  uint64_t consumed() const { return consumed_; }

 private:
  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;
  uint64_t consumed_ = 0;
  bool poisoned_ = false;
  Event poison_event_ = Event::kNeedMore;
};

}  // namespace cpdb
