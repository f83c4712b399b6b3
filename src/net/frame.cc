#include "net/frame.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace cpdb::net {

Status WriteFrame(int fd, const std::string& payload) {
  std::string frame;
  EncodeFrame(payload, &frame);
  return WriteRaw(fd, frame);
}

Status ReadFrame(int fd, FrameReader* reader, std::string* payload) {
  for (;;) {
    switch (reader->Next(payload)) {
      case FrameReader::Event::kFrame:
        return Status::OK();
      case FrameReader::Event::kBadCrc:
        return Status::InvalidArgument("frame payload failed CRC check");
      case FrameReader::Event::kTooLarge:
        return Status::InvalidArgument("frame length exceeds the limit");
      case FrameReader::Event::kMalformed:
        return Status::InvalidArgument("frame length prefix is malformed");
      case FrameReader::Event::kNeedMore:
        break;
    }
    size_t n = 0;
    bool eof = false;
    CPDB_RETURN_IF_ERROR(ReadAvailable(fd, reader, &n, &eof));
    if (eof) return Status::Unavailable("connection closed mid-frame");
  }
}

Status ReadAvailable(int fd, FrameReader* reader, size_t* n_read, bool* eof) {
  *n_read = 0;
  *eof = false;
  char buf[16384];
  ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  if (n == 0) {
    *eof = true;
    return Status::OK();
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::OK();
    }
    if (errno == ECONNRESET) {
      *eof = true;
      return Status::OK();
    }
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
  reader->Append(buf, static_cast<size_t>(n));
  *n_read = static_cast<size_t>(n);
  return Status::OK();
}

Status WriteRaw(int fd, const std::string& bytes) {
  size_t off = 0;
  CPDB_RETURN_IF_ERROR(WriteAvailable(fd, bytes, &off));
  return off == bytes.size() ? Status::OK()
                             : Status::Unavailable("send would block");
}

Status WriteAvailable(int fd, const std::string& buf, size_t* off) {
  while (*off < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + *off, buf.size() - *off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed the connection");
      }
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    *off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace cpdb::net
