// In-memory span recorder for the traced run. A span records its name,
// start and end on the steady clock, the thread CPU time it consumed, its
// parent span (the innermost open span on the same thread) and a request
// id. Spans stay in memory and are written out when the run ends. A
// span's self time is its duration minus the part its children cover.
#ifndef NWBENCH_SPANS_H_
#define NWBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nwbench {

/// Steady-clock nanoseconds.
int64_t NowNs();
/// CPU nanoseconds consumed by the calling thread.
int64_t ThreadCpuNs();

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t thread = 0;
};

class SpanLog {
 public:
  /// Thread-safe: spans may end on any thread.
  void Add(Span span);

  /// Per-name totals (count, wall, self, CPU) as printable lines.
  std::vector<std::string> Summary() const;
  /// Writes one JSON object per span, with its self time. False when the
  /// file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span. A null log records nothing, so untraced code paths pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace nwbench

#endif  // NWBENCH_SPANS_H_
