#include "daemon/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "obs/pulse.h"
#include "obs/stats.h"

namespace nw {

namespace {

int g_wake_write_fd = -1;

/// Bytes one recv may return: a typical SUBMIT line arrives whole and is
/// parsed straight out of the receive buffer.
constexpr size_t kRecvChunk = size_t{64} << 10;

void OnShutdownSignal(int /*signo*/) {
  // Async-signal-safe by construction: one write to a nonblocking pipe.
  char byte = 1;
  ssize_t ignored = ::write(g_wake_write_fd, &byte, 1);
  (void)ignored;
}

std::string RenderError(const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  AppendJsonString(&out, message);
  out += "}\n";
  return out;
}

/// Full send with SIGPIPE suppressed (a client that hung up mid-response
/// must not kill the daemon). False on any error.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int InstallSignalWakeFd() {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  // Nonblocking both ways: a signal burst fills the pipe harmlessly
  // instead of blocking inside the handler, and the server's drain
  // reads stop at EAGAIN instead of hanging.
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_wake_write_fd = fds[1];
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  return fds[0];
}

DaemonServer::DaemonServer(DaemonCore* core, ServerOptions options)
    : core_(core), options_(std::move(options)) {}

DaemonServer::~DaemonServer() {
  Stop();
  if (http_thread_.joinable()) http_thread_.join();
  JoinAll();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

Status DaemonServer::Start() {
  struct sockaddr_un addr;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error("cannot create control socket: " +
                         std::string(std::strerror(errno)));
  }
  // A stale socket file from a crashed predecessor would fail the bind;
  // the daemon owns its path.
  ::unlink(options_.socket_path.c_str());
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    return Status::Error("cannot bind " + options_.socket_path + ": " +
                         std::string(std::strerror(errno)));
  }
  if (options_.http_port >= 0) {
    http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (http_fd_ < 0) {
      return Status::Error("cannot create HTTP socket: " +
                           std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in http_addr;
    std::memset(&http_addr, 0, sizeof(http_addr));
    http_addr.sin_family = AF_INET;
    http_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    http_addr.sin_port = htons(static_cast<uint16_t>(options_.http_port));
    if (::bind(http_fd_, reinterpret_cast<struct sockaddr*>(&http_addr),
               sizeof(http_addr)) != 0 ||
        ::listen(http_fd_, 16) != 0) {
      return Status::Error("cannot bind 127.0.0.1:" +
                           std::to_string(options_.http_port) + ": " +
                           std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(http_addr);
    ::getsockname(http_fd_, reinterpret_cast<struct sockaddr*>(&http_addr),
                  &len);
    http_port_ = static_cast<int>(ntohs(http_addr.sin_port));
  }
  return Status::Ok();
}

void DaemonServer::Stop() { stop_.store(true, std::memory_order_relaxed); }

void DaemonServer::Run() {
  if (http_fd_ >= 0) {
    http_thread_ = std::thread(&DaemonServer::HttpLoop, this);
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    nfds_t nfds = 1;
    if (wake_fd_ >= 0) {
      fds[1].fd = wake_fd_;
      fds[1].events = POLLIN;
      nfds = 2;
    }
    int ready = ::poll(fds, nfds, 200);
    ReapFinished();
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      char drain[16];
      while (::read(wake_fd_, drain, sizeof(drain)) > 0) {
      }
      break;  // SIGINT/SIGTERM: graceful stop
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (connections_.size() >= kMaxConnections) {
      SendAll(conn, RenderError("busy"));
      ::close(conn);
      continue;
    }
    uint64_t id = next_conn_id_++;
    connections_.emplace(id, std::thread(&DaemonServer::Serve, this, id,
                                         conn));
  }
  stop_.store(true, std::memory_order_relaxed);
  // In-flight requests complete: connection threads only exit between
  // requests (or on client hangup), and each joins here before Run()
  // returns — the first half of the graceful-drain contract.
  JoinAll();
  if (http_thread_.joinable()) http_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void DaemonServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (uint64_t id : finished_) {
      auto it = connections_.find(id);
      done.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void DaemonServer::JoinAll() {
  std::map<uint64_t, std::thread> all;
  {
    // Joined outside the lock: a finishing thread takes it to report.
    std::lock_guard<std::mutex> lock(conn_mu_);
    all.swap(connections_);
  }
  for (auto& [id, t] : all) t.join();
  std::lock_guard<std::mutex> lock(conn_mu_);
  finished_.clear();
}

void DaemonServer::Serve(uint64_t id, int fd) {
  std::unique_ptr<char[]> chunk(new char[kRecvChunk]);
  // The start of a line that has not ended yet, carried across recvs; a
  // line that arrives whole is parsed in place in `chunk`.
  std::string carry;
  const std::string too_long = RenderError(
      "protocol: request line exceeds " + std::to_string(kMaxRequestBytes) +
      " bytes");
  bool open = true;
  while (open) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      // Idle: wind down once the server stops (a half-typed request
      // from a client that will never finish does not block shutdown).
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }
    ssize_t n = ::recv(fd, chunk.get(), kRecvChunk, 0);
    if (n <= 0) break;  // hangup or error
    std::string_view data(chunk.get(), static_cast<size_t>(n));
    size_t start = 0;
    size_t nl;
    while (open && (nl = data.find('\n', start)) != std::string_view::npos) {
      std::string_view line = data.substr(start, nl - start);
      start = nl + 1;
      if (!carry.empty()) {
        carry.append(line);
        line = carry;
      }
      if (line.size() > kMaxRequestBytes) {
        SendAll(fd, too_long);
        open = false;
      } else if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
        open = HandleLine(fd, line);
      }
      carry.clear();
    }
    if (!open) break;
    carry.append(data.substr(start));
    if (carry.size() > kMaxRequestBytes) {
      // Answer now rather than buffer the rest of an over-long line.
      SendAll(fd, too_long);
      break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  finished_.push_back(id);
}

bool DaemonServer::HandleLine(int fd, std::string_view line) {
  const uint64_t decode_start_us = PulseNowUs();
  Result<DaemonRequest> parsed = ParseDaemonRequest(line);
  if (!parsed.ok()) return SendAll(fd, RenderError(parsed.status().message()));
  const uint64_t decode_us = PulseNowUs() - decode_start_us;
  core_->CountRequest();
  switch (parsed->op) {
    case DaemonOp::kSubmit: {
      InputFormat format = parsed->has_format ? parsed->format
                                              : core_->default_format();
      Result<SubmitOutcome> outcome =
          core_->Submit(std::move(parsed->doc), format);
      if (!outcome.ok()) {
        return SendAll(fd, RenderError(outcome.status().message()));
      }
      const uint64_t send_start_us = PulseNowUs();
      const SubmitOutcome& o = *outcome;
      std::string resp = "{\"ok\":true,\"op\":\"SUBMIT\",\"label\":";
      AppendJsonString(&resp, parsed->label);
      resp += ",\"epoch\":" + std::to_string(o.epoch->id);
      resp += ",\"positions\":" + std::to_string(o.result.positions);
      resp += ",\"latency_us\":" + std::to_string(o.latency_us);
      resp += ",\"results\":[";
      for (size_t i = 0; i < o.result.accept.size(); ++i) {
        if (i > 0) resp.push_back(',');
        resp += "{\"qid\":" + std::to_string(o.epoch->qids[i]);
        resp += ",\"query\":";
        AppendJsonString(&resp, o.epoch->query_texts[i]);
        resp += ",\"match\":";
        resp += o.result.accept[i] ? "true" : "false";
        if (o.result.accept[i]) {
          resp += ",\"pos\":" + std::to_string(o.result.first_match[i]);
        }
        resp.push_back('}');
      }
      resp += "]}\n";
      bool sent = SendAll(fd, resp);
      core_->RecordSubmitTransport(decode_us, PulseNowUs() - send_start_us);
      return sent;
    }
    case DaemonOp::kAdmit: {
      Result<uint64_t> qid = core_->Admit(parsed->query);
      if (!qid.ok()) return SendAll(fd, RenderError(qid.status().message()));
      std::shared_ptr<const DaemonEpoch> epoch = core_->current_epoch();
      return SendAll(fd, "{\"ok\":true,\"op\":\"ADMIT\",\"qid\":" +
                             std::to_string(*qid) + ",\"epoch\":" +
                             std::to_string(epoch->id) + ",\"queries\":" +
                             std::to_string(epoch->qids.size()) + "}\n");
    }
    case DaemonOp::kRetire: {
      Status s = core_->Retire(parsed->qid);
      if (!s.ok()) return SendAll(fd, RenderError(s.message()));
      std::shared_ptr<const DaemonEpoch> epoch = core_->current_epoch();
      return SendAll(fd, "{\"ok\":true,\"op\":\"RETIRE\",\"qid\":" +
                             std::to_string(parsed->qid) + ",\"epoch\":" +
                             std::to_string(epoch->id) + ",\"queries\":" +
                             std::to_string(epoch->qids.size()) + "}\n");
    }
    case DaemonOp::kStats:
      return SendAll(fd, "{\"ok\":true,\"op\":\"STATS\",\"stats\":" +
                             core_->RenderStatsJson() + "}\n");
    case DaemonOp::kShutdown:
      SendAll(fd, "{\"ok\":true,\"op\":\"SHUTDOWN\"}\n");
      Stop();
      return false;
  }
  return SendAll(fd, RenderError("unreachable op"));
}

void DaemonServer::HttpLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = http_fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int conn = ::accept(http_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // One tiny request at a time: read the header block, answer, close.
    std::string request;
    char chunk[2048];
    for (int spins = 0; spins < 50; ++spins) {
      struct pollfd cpfd;
      cpfd.fd = conn;
      cpfd.events = POLLIN;
      if (::poll(&cpfd, 1, 100) <= 0) continue;
      ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      request.append(chunk, static_cast<size_t>(n));
      if (request.find("\r\n\r\n") != std::string::npos ||
          request.find("\n\n") != std::string::npos) {
        break;
      }
    }
    std::string path;
    size_t sp1 = request.find(' ');
    if (sp1 != std::string::npos) {
      size_t sp2 = request.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        path = request.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    std::string body;
    std::string status_line = "HTTP/1.1 200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (path == "/metrics") {
      body = core_->registry().RenderProm();
    } else if (path == "/healthz") {
      body = "ok\n";
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "not found\n";
    }
    std::string response = status_line + "\r\nContent-Type: " +
                           content_type +
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    SendAll(conn, response);
    ::close(conn);
  }
  ::close(http_fd_);
  http_fd_ = -1;
}

}  // namespace nw
