#include "util/crc32.h"

namespace cpdb {

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Crc32Table table;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table.entries[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(const std::string& in, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  size_t p = *pos;
  for (int shift = 0; shift < 64 && p < in.size(); shift += 7) {
    uint8_t byte = static_cast<uint8_t>(in[p++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *out = result;
      return true;
    }
  }
  return false;  // truncated, or a continuation bit past the 10th byte
}

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetLengthPrefixed(const std::string& in, size_t* pos, std::string* out) {
  size_t p = *pos;
  uint64_t len;
  if (!GetVarint64(in, &p, &len)) return false;
  if (len > in.size() - p) return false;
  out->assign(in, p, len);
  *pos = p + len;
  return true;
}

void EncodeFrame(const std::string& payload, std::string* out) {
  out->reserve(out->size() + payload.size() + kMaxVarint64Bytes + 4);
  PutVarint64(out, payload.size());
  PutFixed32(out, Crc32(payload));
  out->append(payload);
}

void FrameReader::Append(const char* data, size_t n) {
  // Drop the decoded prefix first, so a long pipelined stream (or a whole
  // log) never accumulates in the buffer.
  buf_.erase(0, pos_);
  pos_ = 0;
  buf_.append(data, n);
}

FrameReader::Event FrameReader::Next(std::string* payload) {
  if (poisoned_) return poison_event_;
  size_t p = pos_;
  uint64_t len;
  uint32_t crc;
  if (!GetVarint64(buf_, &p, &len)) {
    // A varint never spans more than kMaxVarint64Bytes: if that many
    // bytes are buffered and it still does not parse, the prefix is
    // garbage, not a short read.
    if (buffered() < kMaxVarint64Bytes) return Event::kNeedMore;
    poison_event_ = Event::kMalformed;
  } else if (len > max_payload_) {
    poison_event_ = Event::kTooLarge;
  } else if (!GetFixed32(buf_, &p, &crc) || buf_.size() - p < len) {
    return Event::kNeedMore;
  } else {
    payload->assign(buf_, p, len);
    if (Crc32(*payload) == crc) {
      consumed_ += p + len - pos_;
      pos_ = p + len;
      return Event::kFrame;
    }
    poison_event_ = Event::kBadCrc;
  }
  poisoned_ = true;
  return poison_event_;
}

}  // namespace cpdb
