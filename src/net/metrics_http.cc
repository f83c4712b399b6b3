#include "net/metrics_http.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cpdb::net {

namespace {

/// Writes all of `data`, retrying short writes. Best-effort: a scraper
/// that hangs up mid-response is its own problem.
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void Respond(int fd, const char* status_line, const std::string& content_type,
             const std::string& body) {
  std::string resp = "HTTP/1.1 ";
  resp += status_line;
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: ";
  resp += std::to_string(body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  WriteAll(fd, resp);
}

}  // namespace

Status MetricsHttpServer::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  if (port_ < 0 || port_ > 65535) {
    return Status::InvalidArgument("metrics port must be in [0, 65535], got " +
                                   std::to_string(port_));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad metrics host " + host_);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st = Status::Internal(std::string("bind metrics port: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() unblocks a pending accept(2) even on Linux, where close()
  // alone would leave the thread parked until the next connection.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) return;
      // Transient accept failure (e.g. EMFILE): back off rather than spin.
      ::poll(nullptr, 0, 50);
      continue;
    }
    Serve(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::Serve(int fd) {
  // A scraper that connects and then stalls must not wedge the loop. The
  // send timeout bounds the response write; the read side is bounded by
  // an overall poll(2) deadline below — a kernel receive timeout alone
  // resets on every dribbled byte, so a slow-loris peer could hold the
  // (serial) accept loop far past any per-read budget.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  // Read until the end of the request head under one total deadline; the
  // request line is all we route on, so cap the read and ignore any body.
  constexpr double kTotalDeadlineUs = 2e6;
  constexpr size_t kMaxHead = 16 * 1024;
  constexpr size_t kMaxRequestLine = 4 * 1024;
  const double deadline_us = obs::NowMicros() + kTotalDeadlineUs;
  std::string head;
  char buf[2048];
  while (head.size() < kMaxHead &&
         head.find("\r\n\r\n") == std::string::npos) {
    const double left_us = deadline_us - obs::NowMicros();
    pollfd pfd{fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1,
                    left_us > 0 ? static_cast<int>(left_us / 1000) + 1 : 0);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      // Deadline expired mid-request. Answer only if the request line
      // arrived; a silent half-open connection gets a silent close.
      if (head.find("\r\n") == std::string::npos) {
        if (!head.empty()) {
          Respond(fd, "408 Request Timeout", "text/plain",
                  "request head timed out\n");
        }
        return;
      }
      break;  // head already has the request line; route on it
    }
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (head.find("\r\n") == std::string::npos) return;
      break;
    }
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n") == std::string::npos &&
        head.size() > kMaxRequestLine) {
      Respond(fd, "431 Request Header Fields Too Large", "text/plain",
              "request line too long\n");
      return;
    }
  }

  const size_t eol = head.find("\r\n");
  if (eol == std::string::npos && head.size() >= kMaxHead) {
    Respond(fd, "431 Request Header Fields Too Large", "text/plain",
            "request line too long\n");
    return;
  }
  const std::string line = eol == std::string::npos ? head : head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    Respond(fd, "400 Bad Request", "text/plain", "bad request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    Respond(fd, "405 Method Not Allowed", "text/plain",
            "only GET is supported\n");
    return;
  }
  if (target != "/metrics") {
    Respond(fd, "404 Not Found", "text/plain", "try /metrics\n");
    return;
  }
  Respond(fd, "200 OK", "text/plain; version=0.0.4; charset=utf-8",
          registry_->RenderPrometheus());
}

}  // namespace cpdb::net
