#pragma once

#include <atomic>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/result.h"

namespace cpdb::net {

/// Minimal plain-HTTP/1.1 sidecar serving `GET /metrics` so standard
/// Prometheus scrapers work against `cpdb_serve --metrics-port` without
/// speaking the cpdb frame protocol. This is a read-only OBSERVATION
/// port, deliberately separate from the data port: it exposes nothing
/// but the registry render, accepts one short request per connection,
/// and answers 404/405 to everything else.
///
/// By design it speaks raw read(2)/write(2), not the frame codec — the
/// NET-FRAMING lint rule confines the socket-verb framing API to
/// frame.cc, and this endpoint's whole purpose is to NOT use that
/// framing (see tools/lint/cpdb_lint.py).
///
/// One thread, blocking accept, serial connections: a scraper hits it
/// every few seconds; parallelism would be complexity without a client.
class MetricsHttpServer {
 public:
  /// Borrows `registry`; it must outlive the server.
  MetricsHttpServer(obs::Registry* registry, std::string host, int port)
      : registry_(registry), host_(std::move(host)), port_(port) {}
  ~MetricsHttpServer() { Stop(); }

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds and spawns the serving thread. Port 0 binds ephemeral
  /// (port() reports the real one); a port outside [0, 65535] is
  /// InvalidArgument, refused before any descriptor or thread exists.
  Status Start();

  /// Closes the listener and joins the thread. Idempotent.
  void Stop();

  int port() const { return port_; }

 private:
  void Loop();

  /// One request-response exchange on an accepted connection.
  void Serve(int fd);

  obs::Registry* const registry_;
  const std::string host_;
  int port_;
  int listen_fd_ = -1;
  /// Written by Stop(), read by the blocking-accept loop: closing the
  /// listener makes accept fail, and this flag marks it deliberate.
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace cpdb::net
