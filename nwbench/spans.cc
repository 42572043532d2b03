#include "spans.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

namespace nwbench {

namespace {

std::atomic<uint64_t> g_next_span{1};
/// Open spans of this thread, innermost last.
thread_local std::vector<uint64_t> t_open;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

namespace {

/// Self time per span id: duration minus the children's durations
/// (children nest inside their parent on the parent's thread).
std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> self;
  for (const Span& s : spans) self[s.id] += s.end_ns - s.start_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace

std::vector<std::string> SpanLog::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> self = SelfTimes(spans_);
  struct Totals {
    size_t count = 0;
    int64_t wall = 0, self = 0, cpu = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    Totals& t = by_name[s.name];
    ++t.count;
    t.wall += s.end_ns - s.start_ns;
    t.self += self[s.id];
    t.cpu += s.cpu_ns;
  }
  std::vector<std::string> out;
  char line[256];
  for (const auto& [name, t] : by_name) {
    std::snprintf(line, sizeof(line),
                  "span %-24s n=%-7zu wall_ms=%-10.3f self_ms=%-10.3f "
                  "cpu_ms=%.3f",
                  name.c_str(), t.count, t.wall / 1e6, t.self / 1e6,
                  t.cpu / 1e6);
    out.push_back(line);
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::unordered_map<uint64_t, int64_t> self = SelfTimes(spans_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"thread\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld,\"cpu_ns\":%lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.thread),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[s.id]),
                 static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open.empty() ? 0 : t_open.back();
  span_.request = request;
  span_.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  t_open.push_back(span_.id);
  span_.cpu_ns = ThreadCpuNs();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  span_.cpu_ns = ThreadCpuNs() - span_.cpu_ns;
  t_open.pop_back();
  log_->Add(std::move(span_));
}

}  // namespace nwbench
