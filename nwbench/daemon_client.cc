#include "daemon_client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace nwbench {

namespace {

constexpr int kTimeoutMs = 60000;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::unique_ptr<DaemonProcess> DaemonProcess::Spawn(
    const std::string& binary, const std::string& socket_path,
    const std::string& query_file, const std::vector<std::string>& extra,
    const std::string& log_path, std::string* error) {
  std::vector<std::string> args = {binary, "--socket", socket_path,
                                   "--queries", query_file};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = "pipe: " + std::string(std::strerror(errno));
    return nullptr;
  }
  int log_fd = ::open(log_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    ::close(out[0]);
    ::close(out[1]);
    return nullptr;
  }
  const pid_t parent = ::getpid();
  auto t0 = std::chrono::steady_clock::now();
  // vfork, not fork: the child borrows this process's memory until exec,
  // so the spawn time does not include copying the benchmark's page
  // tables, whose cost varies from run to run.
  pid_t pid = ::vfork();
  if (pid == 0) {
    // Child: only system calls until exec. The daemon dies with the
    // benchmark (vfork runs on the main thread, whose exit is the
    // benchmark's).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log_fd);
  if (pid < 0) {
    *error = "fork: " + std::string(std::strerror(errno));
    ::close(out[0]);
    return nullptr;
  }
  std::unique_ptr<DaemonProcess> d(new DaemonProcess());
  d->pid_ = pid;
  d->stdout_fd_ = out[0];
  d->socket_path_ = socket_path;

  std::string seen;
  char buf[512];
  for (;;) {
    size_t nl = seen.find('\n');
    if (nl != std::string::npos) {
      if (seen.rfind("nwqueryd: serving", 0) == 0) break;
      seen.erase(0, nl + 1);
      continue;
    }
    int left = kTimeoutMs - static_cast<int>(SecondsSince(t0) * 1000);
    struct pollfd pfd = {d->stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      *error = "nwqueryd printed no ready line (see " + log_path + ")";
      return nullptr;
    }
    ssize_t n = ::read(d->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "nwqueryd exited before its ready line (see " + log_path + ")";
      return nullptr;
    }
    seen.append(buf, static_cast<size_t>(n));
  }
  d->ready_s_ = SecondsSince(t0);
  return d;
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

double DaemonProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int DaemonProcess::WaitExit() {
  auto t0 = std::chrono::steady_clock::now();
  int status = 0;
  for (;;) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 || SecondsSince(t0) * 1000 > kTimeoutMs) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int DaemonProcess::Terminate() {
  ::kill(pid_, SIGTERM);
  return WaitExit();
}

std::unique_ptr<Connection> Connection::Open(const std::string& socket_path,
                                             std::string* error) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return nullptr;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket: " + std::string(std::strerror(errno));
    return nullptr;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::RoundTrip(const std::string& request,
                           std::string* response) {
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  char buf[8192];
  for (;;) {
    size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      response->assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    pending_.append(buf, static_cast<size_t>(n));
  }
}

bool ResponseOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

bool ResponseUint(const std::string& response, const char* key,
                  uint64_t* out) {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t at = response.find(needle);
  if (at == std::string::npos) return false;
  const char* p = response.c_str() + at + needle.size();
  char* end = nullptr;
  unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *out = v;
  return true;
}

bool ResponseBool(const std::string& response, const char* key, bool* out) {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t at = response.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  if (response.compare(at, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (response.compare(at, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool ParseSubmitResponse(const std::string& response, nw::DocResult* out) {
  uint64_t positions = 0;
  if (!ResponseOk(response) ||
      !ResponseUint(response, "positions", &positions)) {
    return false;
  }
  out->positions = positions;
  out->accept.clear();
  out->first_match.clear();
  // Query texts never contain a double quote, so "match": only occurs as
  // a key.
  static const std::string kMatch = "\"match\":";
  static const std::string kPos = ",\"pos\":";
  size_t at = response.find("\"results\":[");
  if (at == std::string::npos) return false;
  while ((at = response.find(kMatch, at)) != std::string::npos) {
    at += kMatch.size();
    bool match = response.compare(at, 4, "true") == 0;
    if (!match && response.compare(at, 5, "false") != 0) return false;
    at += match ? 4 : 5;
    int64_t pos = -1;
    if (match) {
      if (response.compare(at, kPos.size(), kPos) != 0) return false;
      pos = std::strtoll(response.c_str() + at + kPos.size(), nullptr, 10);
    }
    out->accept.push_back(match);
    out->first_match.push_back(pos);
  }
  return true;
}

}  // namespace nwbench
