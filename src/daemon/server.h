// NWDaemon transport: the Unix-domain control socket (newline-delimited
// JSON requests, see daemon/protocol.h) and the minimal HTTP /metrics
// endpoint (Prometheus text exposition straight from the core registry's
// RenderProm). One thread per control connection, which decodes its
// requests in place and evaluates its SUBMITs itself (DaemonCore::Submit);
// one thread for HTTP.
//
// Limits, each answered with {"ok":false,"error":...}:
//   * kMaxConnections open control connections — one more is answered
//     "busy" and closed. A connection thread is joined by the accept
//     loop as soon as it finishes, so closed connections hold nothing.
//   * kMaxRequestBytes per request line — a longer line is answered
//     with an error and its connection closed without reading the rest.
//
// Shutdown paths, all converging on the same graceful drain:
//   * a SHUTDOWN request — the connection gets its {"ok":true} response
//     first, then the server stops accepting and Run() returns;
//   * SIGINT/SIGTERM — InstallSignalWakeFd() routes the signal through a
//     self-pipe (the only async-signal-safe thing a handler can do is
//     write a byte) that the accept loop polls alongside the listener.
// Run() returning means: no new connections, every in-flight request
// answered, every connection thread joined. The caller then drains the
// core (DaemonCore::DrainAndStop) and takes the final pulse tick — the
// exit-0 contract tested by the death-free shutdown test.
#ifndef NW_DAEMON_SERVER_H_
#define NW_DAEMON_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/result.h"

namespace nw {

class DaemonCore;

/// Open control connections served at once; the next is refused "busy".
inline constexpr size_t kMaxConnections = 256;
/// Longest request line, newline excluded (NWBench's largest SUBMIT is
/// about 100 KB).
inline constexpr size_t kMaxRequestBytes = size_t{16} << 20;

/// Installs SIGINT/SIGTERM handlers that write one byte to a self-pipe
/// and returns the pipe's read end (-1 on failure). Pass the fd to
/// DaemonServer::set_wake_fd so the accept loop wakes on the signal.
/// Call at most once per process; the handlers stay installed.
int InstallSignalWakeFd();

struct ServerOptions {
  /// Control-socket path; bound fresh (a stale file is unlinked first).
  std::string socket_path;
  /// HTTP /metrics port on 127.0.0.1: -1 disables, 0 binds an ephemeral
  /// port (read the chosen one back via http_port() after Start).
  int http_port = -1;
};

class DaemonServer {
 public:
  /// `core` must be started and must outlive the server.
  DaemonServer(DaemonCore* core, ServerOptions options);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds + listens on the control socket (and the HTTP port when
  /// enabled). Errors name the failing path/port.
  Status Start();

  /// The HTTP port actually bound (the ephemeral answer for port 0);
  /// -1 when HTTP is disabled. Valid after Start().
  int http_port() const { return http_port_; }

  /// Signal wake fd (see InstallSignalWakeFd); -1 (default) disables.
  /// Set before Run().
  void set_wake_fd(int fd) { wake_fd_ = fd; }

  /// Accept loop: serves until a SHUTDOWN request, a wake-fd byte, or
  /// Stop(). On return every connection thread is joined and the
  /// sockets are closed.
  void Run();

  /// Asks Run() to wind down (thread-safe; used by tests).
  void Stop();

 private:
  void HttpLoop();
  /// One control connection's loop; `id` names it in connections_.
  void Serve(uint64_t id, int fd);
  /// Handles one request line and sends its response. Returns false when
  /// the connection should close (SHUTDOWN, or the send failed).
  bool HandleLine(int fd, std::string_view line);
  /// Joins the connection threads that have finished.
  void ReapFinished();
  /// Joins every connection thread (each ends once stop_ is set).
  void JoinAll();

  DaemonCore* core_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int http_fd_ = -1;
  int http_port_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread http_thread_;
  std::mutex conn_mu_;
  uint64_t next_conn_id_ = 0;
  /// Every connection thread not yet joined, by id.
  std::map<uint64_t, std::thread> connections_;
  /// Ids whose Serve returned; the accept loop joins them.
  std::vector<uint64_t> finished_;
};

}  // namespace nw

#endif  // NW_DAEMON_SERVER_H_
