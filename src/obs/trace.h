// NWStats scoped-span tracer: opt-in per-document span recording. Off by
// default everywhere; the nwquery CLI enables it when the NWQUERY_TRACE
// environment variable names a writable file. A null Tracer* makes every
// TraceSpan a no-op behind a branch on a constant pointer, so tracing
// costs nothing unless asked for — the same discipline as the stats
// sinks (obs/stats.h).
//
// Two wire formats, selected at construction (NWQUERY_TRACE_FORMAT for
// the CLI; see docs/OBSERVABILITY.md):
//
//  * kJsonl (default) — one object per line, the `jq`-able shape:
//      {"name":"doc","label":"corpus/a.xml","shard":0,"start_us":12,
//       "dur_us":345,"positions":678,"matched":2}
//  * kChrome — a single JSON array of Trace Event Format events,
//    loadable in Perfetto / chrome://tracing. Spans become complete
//    ("ph":"X") events with pid 1 and tid = the span's "shard" field
//    (0 when absent), remaining numeric fields under "args"; counter
//    snapshots (WriteCounters) become "ph":"C" events so shard
//    hit/miss/doc totals plot as time series.
//
// `start_us` / "ts" are relative to the tracer's construction, so spans
// from all shards share one clock and a trace is self-contained.
#ifndef NW_OBS_TRACE_H_
#define NW_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nw {

struct StatsSink;  // obs/stats.h

/// Wire format of a Tracer's output file.
enum class TraceFormat {
  kJsonl,   ///< one JSON object per line (grep/jq-friendly)
  kChrome,  ///< Chrome Trace Event Format JSON array (Perfetto-loadable)
};

class Tracer {
 public:
  /// Opens `path` ("-" means stderr; jsonl appends, chrome truncates —
  /// an event array must own the whole file). ok() reports whether the
  /// sink is usable; a failed open leaves a null-object tracer.
  explicit Tracer(const std::string& path,
                  TraceFormat format = TraceFormat::kJsonl);
  /// Chrome mode closes the event array; both modes flush and close.
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Builds a tracer from the environment (default NWQUERY_TRACE), or
  /// null when the variable is unset/empty — the common case, letting
  /// callers hold a plain `Tracer*` that is nullptr when disabled.
  /// `format_var` (default NWQUERY_TRACE_FORMAT) selects the wire
  /// format: "chrome" for kChrome, anything else (or unset) for kJsonl.
  static std::unique_ptr<Tracer> FromEnv(
      const char* var = "NWQUERY_TRACE",
      const char* format_var = "NWQUERY_TRACE_FORMAT");

  bool ok() const { return file_ != nullptr; }
  TraceFormat format() const { return format_; }

  /// Microseconds since tracer construction (the spans' shared clock).
  uint64_t NowUs() const;

  /// Writes one span; thread-safe (one mutex-guarded fwrite so events
  /// from concurrent shards never interleave). Chrome mode renders an
  /// "X" event on tid = the value of the "shard" field when present.
  void WriteSpan(const std::string& name, const std::string& label,
                 uint64_t start_us, uint64_t dur_us,
                 const std::vector<std::pair<std::string, uint64_t>>& fields);

  /// Snapshots a shard's headline counters (docs, positions, frozen
  /// hits/misses) as one counter event — a "C" event on tid `shard` in
  /// chrome mode; in jsonl a line in the span schema, a zero-length span
  /// {"name":"counters","label":"shard/N","start_us":now,"dur_us":0,
  /// "shard":N,...} so every line has the same four keys. Thread-safe;
  /// call it from the shard that owns `sink` (single-writer sinks are
  /// only safely readable from their writer thread while serving).
  void WriteCounters(uint64_t shard, const StatsSink& sink);

 private:
  /// Appends one rendered event under mu_, handling the chrome-mode
  /// comma separator between array elements. Caller holds no lock.
  void Emit(const std::string& event);

  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  TraceFormat format_ = TraceFormat::kJsonl;
  bool first_event_ = true;  ///< chrome-mode comma tracking; under mu_
  std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: records the start time at construction and writes the line
/// at destruction. With a null tracer every method is a no-op.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string name, std::string label)
      : tracer_(tracer), name_(std::move(name)), label_(std::move(label)) {
    if (tracer_ != nullptr) start_us_ = tracer_->NowUs();
  }
  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->WriteSpan(name_, label_, start_us_,
                         tracer_->NowUs() - start_us_, fields_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric field to the span line (e.g. positions, shard).
  void Note(const std::string& key, uint64_t value) {
    if (tracer_ != nullptr) fields_.emplace_back(key, value);
  }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string label_;
  uint64_t start_us_ = 0;
  std::vector<std::pair<std::string, uint64_t>> fields_;
};

}  // namespace nw

#endif  // NW_OBS_TRACE_H_
