// NWPulse: time-resolved observability on top of the NWStats registry.
// NWStats/NWProf render once, post mortem; this layer turns the same
// single-writer relaxed-atomic cells (obs/metrics.h) into a time series
// a long sharded run can be watched through — the per-epoch metrics
// surface the ROADMAP's NWDaemon item depends on.
//
// Three pieces:
//
//  1. Snapshot/delta engine — StatsSnapshot is an immutable capture of
//     everything a StatsRegistry can see (every schema counter/gauge,
//     full histogram bucket vectors, merged attribution tables, process
//     rusage), taken while shards write: the reader-side view the
//     relaxed-atomic cells were designed to permit. SnapshotDelta
//     subtracts two captures — interval counts, and *interval* (not
//     lifetime) latency percentiles via bucket-wise histogram
//     subtraction.
//  2. PulseSampler — a background thread that scrapes every N ms,
//     appending one self-describing JSONL record per tick and/or
//     re-rendering a live terminal view (--watch) from the PulseProgress
//     cells the serving loop publishes mid-run.
//  3. Prometheus exposition — StatsRegistry::RenderProm() (declared in
//     obs/stats.h, implemented here) maps the schema onto OpenMetrics
//     text: counters as nw_<name>_total, histograms as cumulative
//     _bucket{le=...}/_sum/_count over BucketLowerBound boundaries,
//     per-shard sink= and per-query query= labels.
//
// Threading: capture reads relaxed atomics concurrently with shard
// writers (torn multi-field views are possible mid-run, exact after the
// writers join — same contract as StatsRegistry::Aggregate). The
// registry's *registration* phase is not concurrent-safe: finish all
// Register/RegisterAttribution calls before the first capture or
// Start(). tests/pulse_test.cc holds the TSan witness.
#ifndef NW_OBS_PULSE_H_
#define NW_OBS_PULSE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats.h"

namespace nw {

/// Process-level machine context: peak RSS and user/sys CPU from
/// getrusage(RUSAGE_SELF), wall time since the process epoch (program
/// load). Zeros on platforms without rusage.
struct ProcessSample {
  uint64_t rss_peak_kb = 0;
  uint64_t cpu_user_us = 0;
  uint64_t cpu_sys_us = 0;
  uint64_t wall_us = 0;

  /// JSON object body (no braces): the shared fragment the pulse
  /// records, the stats registry, and the bench reports embed.
  std::string ToJsonFields() const;
};
ProcessSample SampleProcess();

/// Microseconds since the process epoch — the pulse records' shared
/// clock, whose t=0 is fixed when the program loads.
uint64_t PulseNowUs();

/// Immutable capture of one Histogram: the full bucket vector plus the
/// count/sum/max summary, supporting the same Percentile contract — and,
/// unlike the live cell, supporting subtraction.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  ///< Histogram::kBuckets entries

  static HistogramSnapshot Capture(const Histogram& h);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Same contract as Histogram::Percentile: the lower bound of the
  /// bucket holding rank ceil(q*count); 0 when empty.
  uint64_t Percentile(double q) const;
  /// Bucket-wise this += other (aggregation across sinks).
  void MergeFrom(const HistogramSnapshot& other);
};

/// One sink's capture: values parallel to the stats schema tables
/// (SinkCounterFields / SinkGaugeFields / SinkHistogramFields).
struct SinkSnapshot {
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<HistogramSnapshot> histograms;

  static SinkSnapshot Capture(const StatsSink& sink);

  /// Schema-name lookups (NW_CHECK on an unknown name; tests and
  /// renderers address fields by wire name, never by index).
  uint64_t counter(const char* name) const;
  uint64_t gauge(const char* name) const;
  const HistogramSnapshot& histogram(const char* name) const;

  /// Aggregation: counters sum, gauges max, histograms merge.
  void MergeFrom(const SinkSnapshot& other);
};

/// Per-query attribution capture (one row per bank entry, merged across
/// the registry's tables exactly like the JSON render).
struct QuerySnapshot {
  uint64_t match_docs = 0;
  uint64_t accept_positions = 0;
  uint64_t escalations = 0;
  uint64_t states_compiled = 0;  ///< gauge: kept, not subtracted
  uint64_t states_final = 0;     ///< gauge: kept, not subtracted
};

/// Everything one scrape sees. A StatsSnapshot is either a capture
/// (cumulative values at time t_us) or a delta (interval values over
/// t_us microseconds) — same shape, so interval percentiles fall out of
/// the same HistogramSnapshot::Percentile.
struct StatsSnapshot {
  uint64_t t_us = 0;  ///< capture time; the interval length in a delta
  std::vector<std::string> labels;  ///< registration order
  std::vector<SinkSnapshot> sinks;  ///< parallel to labels
  std::vector<QuerySnapshot> queries;
  uint64_t attr_docs = 0;
  uint64_t attr_positions = 0;
  ProcessSample process;

  /// Cross-sink aggregate (counters sum, gauges max, histograms merge).
  SinkSnapshot Aggregate() const;
};

/// Captures the registry (all sinks, merged attribution, process
/// context) at PulseNowUs(). Safe while the sinks' writers run;
/// registration must be complete.
StatsSnapshot CaptureSnapshot(const StatsRegistry& registry);

/// Interval view between two captures of the same registry: counters
/// and histogram buckets/count/sum subtract (clamped at 0 — a
/// single-writer counter cannot regress, the clamp is defense against a
/// misused pair), gauges and histogram max carry the current value
/// (interval maxima are not recoverable from cumulative cells), process
/// CPU/wall subtract, peak RSS carries. Sinks are matched by label; a
/// label absent from `prev` (registered between captures) deltas against
/// zero.
StatsSnapshot SnapshotDelta(const StatsSnapshot& prev,
                            const StatsSnapshot& cur);

/// In-flight progress cells a serving loop publishes per *document* (not
/// per position — contention stays negligible) so a sampler can read
/// corpus progress mid-run. Multi-writer: shards fetch_add, readers load.
struct PulseProgress {
  std::atomic<uint64_t> total_docs{0};
  std::atomic<uint64_t> cursor{0};  ///< next corpus index to be claimed
  std::atomic<uint64_t> docs_done{0};
  std::atomic<uint64_t> bytes_done{0};
  std::atomic<bool> active{false};

  /// Re-arms for a run over `total` documents (each EvaluateCorpus call
  /// is one run; cumulative totals live in the sinks, not here).
  void Reset(uint64_t total) {
    total_docs.store(total, std::memory_order_relaxed);
    cursor.store(0, std::memory_order_relaxed);
    docs_done.store(0, std::memory_order_relaxed);
    bytes_done.store(0, std::memory_order_relaxed);
    active.store(true, std::memory_order_relaxed);
  }
};

/// One self-describing JSONL time-series record (`{"type":"pulse",...}`):
/// cumulative totals, interval deltas for every schema counter, derived
/// per-second rates, the interval latency histogram's percentiles, the
/// per-sink interval rows, and the process sample. `progress` may be
/// null. Schema documented in docs/OBSERVABILITY.md and validated by
/// tools/check_pulse.py.
std::string RenderPulseRecord(const StatsSnapshot& cur,
                              const StatsSnapshot& delta, uint64_t seq,
                              const PulseProgress* progress);

/// The `{"type":"pulse_start",...}` header record: schema version,
/// interval, and the baseline totals every later delta accumulates onto
/// (sum of deltas + baseline == final totals, exactly).
std::string RenderPulseStart(const StatsSnapshot& baseline,
                             uint64_t interval_ms);

/// Multi-line live terminal frame (--watch): run progress, docs/s and
/// MB/s over the last interval, interval p50/p99, frozen hit rate, one
/// utilization line per shard sink.
std::string RenderWatchFrame(const StatsSnapshot& cur,
                             const StatsSnapshot& delta,
                             const PulseProgress* progress);

/// Background scraper: one thread, one tick every interval_ms, each tick
/// one capture → delta → JSONL append and/or watch re-render. Start()
/// captures the baseline; Stop() (and the destructor) takes one final
/// tick after signalling the thread down, so the last partial interval
/// is never lost and the deltas sum exactly to the end-of-run totals.
class PulseSampler {
 public:
  struct Options {
    uint64_t interval_ms = 500;
    /// JSONL destination (not owned; may be null for watch-only use).
    std::FILE* jsonl = nullptr;
    /// Re-render a live frame each tick (ANSI in-place when the
    /// destination is a terminal, plain appended frames otherwise).
    bool watch = false;
    std::FILE* watch_out = nullptr;  ///< defaults to stderr under watch
    const PulseProgress* progress = nullptr;  ///< optional live hook
  };

  /// `registry` must outlive the sampler and be fully registered before
  /// Start() — registration mutates the sink list the scraper iterates.
  PulseSampler(const StatsRegistry* registry, Options opts);
  ~PulseSampler();

  PulseSampler(const PulseSampler&) = delete;
  PulseSampler& operator=(const PulseSampler&) = delete;

  void Start();
  /// Final tick + join; idempotent. Call after the instrumented work
  /// finishes (e.g. after EvaluateCorpus returns) so the closing delta
  /// is exact.
  void Stop();

  /// Ticks emitted so far (including the final Stop() tick). Read after
  /// Stop() for an exact value.
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  void Tick();

  const StatsRegistry* registry_;
  Options opts_;
  StatsSnapshot prev_;
  uint64_t seq_ = 0;
  size_t watch_lines_ = 0;  ///< lines of the previous frame to rewind
  bool watch_tty_ = false;
  std::atomic<uint64_t> ticks_{0};
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
};

}  // namespace nw

#endif  // NW_OBS_PULSE_H_
