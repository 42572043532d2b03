// nwqueryd as the benchmark drives it: a child process spawned and timed
// to its ready line, and blocking newline-delimited JSON connections over
// its Unix socket (daemon/protocol.h is the wire grammar).
#ifndef NWBENCH_DAEMON_CLIENT_H_
#define NWBENCH_DAEMON_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/sharded.h"

namespace nwbench {

/// One nwqueryd child. The destructor kills a child that is still running
/// and reaps it, so no daemon outlives the benchmark; the child also gets
/// SIGKILL if the benchmark dies first.
class DaemonProcess {
 public:
  /// Spawns `binary --socket socket_path --queries query_file ...extra`
  /// with stderr appended to `log_path`, and waits (at most 60 s) for the
  /// ready line on its stdout. Null on failure, with `*error` set.
  static std::unique_ptr<DaemonProcess> Spawn(
      const std::string& binary, const std::string& socket_path,
      const std::string& query_file, const std::vector<std::string>& extra,
      const std::string& log_path, std::string* error);

  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  /// Spawn to ready line, seconds.
  double ready_seconds() const { return ready_s_; }
  /// Peak resident set (VmHWM) of the daemon so far, MB.
  double PeakRssMb() const;
  /// Waits for the child to exit after a SHUTDOWN (at most 60 s, then
  /// SIGKILL). Returns its exit code, or -1 when it was killed by a
  /// signal or had to be.
  int WaitExit();
  /// SIGTERM (nwqueryd's graceful drain), then WaitExit().
  int Terminate();

 private:
  DaemonProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_path_;
  double ready_s_ = 0;
};

/// One blocking client connection.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(const std::string& socket_path,
                                          std::string* error);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `request` (one line, newline included) and reads one response
  /// line into `*response` (newline stripped). False on a socket error,
  /// a hangup, or no response within 60 s.
  bool RoundTrip(const std::string& request, std::string* response);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
  std::string pending_;
};

/// Response field readers. Each finds the FIRST occurrence of `"key":`;
/// the benchmark only reads keys whose first occurrence is the one meant
/// (STATS nests the epoch object first; SUBMIT lists results last).
bool ResponseOk(const std::string& response);
bool ResponseUint(const std::string& response, const char* key,
                  uint64_t* out);
bool ResponseBool(const std::string& response, const char* key, bool* out);

/// The per-query `match` bits and `pos` values of a SUBMIT response, plus
/// its `positions`, as a DocResult (first_match is -1 where no match).
bool ParseSubmitResponse(const std::string& response, nw::DocResult* out);

}  // namespace nwbench

#endif  // NWBENCH_DAEMON_CLIENT_H_
