#include "obs/pulse.h"

#include <chrono>
#include <cinttypes>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "obs/prof.h"
#include "support/check.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define NW_HAVE_RUSAGE 1
#endif

namespace nw {

// ---------------------------------------------------------------------------
// Process sample
// ---------------------------------------------------------------------------

namespace {

// t=0 of PulseNowUs, fixed when the program loads, so a reading is time
// since process start no matter which caller asks first.
const std::chrono::steady_clock::time_point kProcessEpoch =
    std::chrono::steady_clock::now();

}  // namespace

uint64_t PulseNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - kProcessEpoch)
          .count());
}

ProcessSample SampleProcess() {
  ProcessSample s;
  s.wall_us = PulseNowUs();
#ifdef NW_HAVE_RUSAGE
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is KiB on Linux, bytes on Darwin.
#if defined(__APPLE__)
    s.rss_peak_kb = static_cast<uint64_t>(ru.ru_maxrss) / 1024;
#else
    s.rss_peak_kb = static_cast<uint64_t>(ru.ru_maxrss);
#endif
    s.cpu_user_us = static_cast<uint64_t>(ru.ru_utime.tv_sec) * 1000000 +
                    static_cast<uint64_t>(ru.ru_utime.tv_usec);
    s.cpu_sys_us = static_cast<uint64_t>(ru.ru_stime.tv_sec) * 1000000 +
                   static_cast<uint64_t>(ru.ru_stime.tv_usec);
  }
#endif
  return s;
}

namespace {

void AppendNum(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void Field(std::string* out, bool* first, const char* key, uint64_t v) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(out, key);
  out->push_back(':');
  AppendNum(out, v);
}

void FieldDbl(std::string* out, bool* first, const char* key, double v) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(out, key);
  out->push_back(':');
  AppendJsonDouble(out, v);
}

uint64_t ClampedSub(uint64_t cur, uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

}  // namespace

std::string ProcessSample::ToJsonFields() const {
  std::string out;
  bool first = true;
  Field(&out, &first, "rss_peak_kb", rss_peak_kb);
  Field(&out, &first, "cpu_user_us", cpu_user_us);
  Field(&out, &first, "cpu_sys_us", cpu_sys_us);
  Field(&out, &first, "wall_us", wall_us);
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot capture
// ---------------------------------------------------------------------------

HistogramSnapshot HistogramSnapshot::Capture(const Histogram& h) {
  HistogramSnapshot s;
  s.buckets.resize(Histogram::kBuckets);
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    s.buckets[i] = h.bucket(i);
  }
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.max();
  return s;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketLowerBound(i);
  }
  return max;  // only if count disagrees with the buckets (torn capture)
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size());
  }
  for (uint32_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

SinkSnapshot SinkSnapshot::Capture(const StatsSink& sink) {
  SinkSnapshot s;
  s.counters.reserve(SinkCounterFields().size());
  for (const SinkCounterField& f : SinkCounterFields()) {
    s.counters.push_back((sink.*f.member).value());
  }
  s.gauges.reserve(SinkGaugeFields().size());
  for (const SinkGaugeField& f : SinkGaugeFields()) {
    s.gauges.push_back((sink.*f.member).value());
  }
  s.histograms.reserve(SinkHistogramFields().size());
  for (const SinkHistogramField& f : SinkHistogramFields()) {
    s.histograms.push_back(HistogramSnapshot::Capture(sink.*f.member));
  }
  return s;
}

uint64_t SinkSnapshot::counter(const char* name) const {
  const std::vector<SinkCounterField>& fields = SinkCounterFields();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (std::strcmp(fields[i].name, name) == 0) return counters[i];
  }
  NW_CHECK_MSG(false, "unknown counter '%s'", name);
  return 0;
}

uint64_t SinkSnapshot::gauge(const char* name) const {
  const std::vector<SinkGaugeField>& fields = SinkGaugeFields();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (std::strcmp(fields[i].name, name) == 0) return gauges[i];
  }
  NW_CHECK_MSG(false, "unknown gauge '%s'", name);
  return 0;
}

const HistogramSnapshot& SinkSnapshot::histogram(const char* name) const {
  const std::vector<SinkHistogramField>& fields = SinkHistogramFields();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (std::strcmp(fields[i].name, name) == 0) return histograms[i];
  }
  NW_CHECK_MSG(false, "unknown histogram '%s'", name);
  return histograms[0];
}

void SinkSnapshot::MergeFrom(const SinkSnapshot& other) {
  if (counters.empty()) counters.resize(other.counters.size());
  if (gauges.empty()) gauges.resize(other.gauges.size());
  if (histograms.empty()) histograms.resize(other.histograms.size());
  for (size_t i = 0; i < other.counters.size(); ++i) {
    counters[i] += other.counters[i];
  }
  for (size_t i = 0; i < other.gauges.size(); ++i) {
    if (other.gauges[i] > gauges[i]) gauges[i] = other.gauges[i];
  }
  for (size_t i = 0; i < other.histograms.size(); ++i) {
    histograms[i].MergeFrom(other.histograms[i]);
  }
}

SinkSnapshot StatsSnapshot::Aggregate() const {
  SinkSnapshot agg;
  agg.counters.resize(SinkCounterFields().size());
  agg.gauges.resize(SinkGaugeFields().size());
  agg.histograms.resize(SinkHistogramFields().size());
  for (const SinkSnapshot& s : sinks) agg.MergeFrom(s);
  return agg;
}

StatsSnapshot CaptureSnapshot(const StatsRegistry& registry) {
  StatsSnapshot snap;
  snap.t_us = PulseNowUs();
  snap.labels.reserve(registry.num_sinks());
  snap.sinks.reserve(registry.num_sinks());
  for (const auto& [label, sink] : registry.sinks()) {
    snap.labels.push_back(label);
    snap.sinks.push_back(SinkSnapshot::Capture(*sink));
  }
  const std::vector<const QueryAttribution*>& attrs = registry.attributions();
  if (!attrs.empty()) {
    const size_t k = attrs.front()->num_queries();
    snap.queries.resize(k);
    for (const QueryAttribution* a : attrs) {
      snap.attr_docs += a->docs.value();
      snap.attr_positions += a->positions.value();
      for (size_t i = 0; i < k; ++i) {
        const QueryProfile& q = a->query(i);
        QuerySnapshot& out = snap.queries[i];
        out.match_docs += q.match_docs.value();
        out.accept_positions += q.accept_positions.value();
        out.escalations += q.escalations.value();
        if (q.states_compiled.value() > out.states_compiled) {
          out.states_compiled = q.states_compiled.value();
        }
        if (q.states_final.value() > out.states_final) {
          out.states_final = q.states_final.value();
        }
      }
    }
  }
  snap.process = SampleProcess();
  return snap;
}

// ---------------------------------------------------------------------------
// Delta
// ---------------------------------------------------------------------------

namespace {

SinkSnapshot SinkDelta(const SinkSnapshot* prev, const SinkSnapshot& cur) {
  if (prev == nullptr) return cur;  // new sink: everything is interval
  SinkSnapshot d = cur;             // gauges (and hist max) carry over
  for (size_t i = 0; i < d.counters.size(); ++i) {
    d.counters[i] = ClampedSub(cur.counters[i], prev->counters[i]);
  }
  for (size_t i = 0; i < d.histograms.size(); ++i) {
    HistogramSnapshot& h = d.histograms[i];
    const HistogramSnapshot& p = prev->histograms[i];
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      h.buckets[b] = ClampedSub(h.buckets[b], p.buckets[b]);
    }
    h.count = ClampedSub(h.count, p.count);
    h.sum = ClampedSub(h.sum, p.sum);
  }
  return d;
}

}  // namespace

StatsSnapshot SnapshotDelta(const StatsSnapshot& prev,
                            const StatsSnapshot& cur) {
  StatsSnapshot d;
  d.t_us = ClampedSub(cur.t_us, prev.t_us);
  d.labels = cur.labels;
  d.sinks.reserve(cur.sinks.size());
  for (size_t i = 0; i < cur.sinks.size(); ++i) {
    // Labels are appended in registration order, so the common case is a
    // positional match; fall back to a scan for sinks registered between
    // the two captures.
    const SinkSnapshot* p = nullptr;
    if (i < prev.labels.size() && prev.labels[i] == cur.labels[i]) {
      p = &prev.sinks[i];
    } else {
      for (size_t j = 0; j < prev.labels.size(); ++j) {
        if (prev.labels[j] == cur.labels[i]) {
          p = &prev.sinks[j];
          break;
        }
      }
    }
    d.sinks.push_back(SinkDelta(p, cur.sinks[i]));
  }
  d.queries = cur.queries;
  for (size_t i = 0; i < d.queries.size(); ++i) {
    if (i < prev.queries.size()) {
      d.queries[i].match_docs =
          ClampedSub(cur.queries[i].match_docs, prev.queries[i].match_docs);
      d.queries[i].accept_positions = ClampedSub(
          cur.queries[i].accept_positions, prev.queries[i].accept_positions);
      d.queries[i].escalations =
          ClampedSub(cur.queries[i].escalations, prev.queries[i].escalations);
    }
  }
  d.attr_docs = ClampedSub(cur.attr_docs, prev.attr_docs);
  d.attr_positions = ClampedSub(cur.attr_positions, prev.attr_positions);
  d.process.rss_peak_kb = cur.process.rss_peak_kb;
  d.process.cpu_user_us =
      ClampedSub(cur.process.cpu_user_us, prev.process.cpu_user_us);
  d.process.cpu_sys_us =
      ClampedSub(cur.process.cpu_sys_us, prev.process.cpu_sys_us);
  d.process.wall_us = ClampedSub(cur.process.wall_us, prev.process.wall_us);
  return d;
}

// ---------------------------------------------------------------------------
// JSONL records
// ---------------------------------------------------------------------------

namespace {

/// `"key":{...all schema counters of agg...}`.
void AppendCounterObject(std::string* out, const char* key,
                         const SinkSnapshot& agg) {
  AppendJsonString(out, key);
  *out += ":{";
  bool first = true;
  const std::vector<SinkCounterField>& fields = SinkCounterFields();
  for (size_t i = 0; i < fields.size(); ++i) {
    Field(out, &first, fields[i].name, agg.counters[i]);
  }
  out->push_back('}');
}

double PerSecond(uint64_t delta, uint64_t interval_us) {
  // interval 0 divides to NaN/Inf; AppendJsonDouble renders that null.
  return static_cast<double>(delta) * 1e6 /
         static_cast<double>(interval_us);
}

}  // namespace

std::string RenderPulseStart(const StatsSnapshot& baseline,
                             uint64_t interval_ms) {
  std::string out = "{\"type\":\"pulse_start\",\"version\":1";
  bool first = false;
  Field(&out, &first, "interval_ms", interval_ms);
  Field(&out, &first, "t_us", baseline.t_us);
  out += ",\"labels\":[";
  for (size_t i = 0; i < baseline.labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(&out, baseline.labels[i]);
  }
  out += "],";
  AppendCounterObject(&out, "totals", baseline.Aggregate());
  out += ",\"process\":{" + baseline.process.ToJsonFields() + "}}";
  return out;
}

std::string RenderPulseRecord(const StatsSnapshot& cur,
                              const StatsSnapshot& delta, uint64_t seq,
                              const PulseProgress* progress) {
  const SinkSnapshot cur_agg = cur.Aggregate();
  const SinkSnapshot d_agg = delta.Aggregate();
  const uint64_t interval = delta.t_us;
  std::string out = "{\"type\":\"pulse\"";
  bool first = false;
  Field(&out, &first, "seq", seq);
  Field(&out, &first, "t_us", cur.t_us);
  Field(&out, &first, "interval_us", interval);
  out.push_back(',');
  AppendCounterObject(&out, "totals", cur_agg);
  out.push_back(',');
  AppendCounterObject(&out, "delta", d_agg);
  // Derived per-second rates over the interval.
  out += ",\"rate\":{";
  bool rf = true;
  FieldDbl(&out, &rf, "docs_per_s",
           PerSecond(d_agg.counter("engine_docs"), interval));
  FieldDbl(&out, &rf, "positions_per_s",
           PerSecond(d_agg.counter("engine_positions"), interval));
  FieldDbl(&out, &rf, "bytes_per_s",
           PerSecond(d_agg.counter("stream_bytes"), interval));
  out.push_back('}');
  // Interval latency: percentiles of the bucket-subtracted histogram.
  const HistogramSnapshot& lat = d_agg.histogram("doc_latency_us");
  out += ",\"latency_us\":{";
  bool lf = true;
  Field(&out, &lf, "count", lat.count);
  FieldDbl(&out, &lf, "mean", lat.mean());
  Field(&out, &lf, "p50", lat.Percentile(0.50));
  Field(&out, &lf, "p90", lat.Percentile(0.90));
  Field(&out, &lf, "p99", lat.Percentile(0.99));
  out.push_back('}');
  // Interval frozen hit rate (null via the guard when no traffic).
  {
    uint64_t hits = d_agg.counter("frozen_hits");
    uint64_t total = hits + d_agg.counter("frozen_misses");
    bool hf = false;
    FieldDbl(&out, &hf, "frozen_hit_rate",
             static_cast<double>(hits) / static_cast<double>(total));
  }
  // Per-sink interval rows: the live skew view.
  out += ",\"shards\":[";
  for (size_t i = 0; i < delta.sinks.size(); ++i) {
    if (i > 0) out.push_back(',');
    const SinkSnapshot& s = delta.sinks[i];
    out += "{\"label\":";
    AppendJsonString(&out, delta.labels[i]);
    bool sf = false;
    Field(&out, &sf, "docs", s.counter("shard_docs"));
    Field(&out, &sf, "bytes", s.counter("shard_bytes"));
    Field(&out, &sf, "positions", s.counter("shard_positions"));
    Field(&out, &sf, "busy_us", s.counter("shard_busy_us"));
    // Interval busy time over the interval: a shard's live utilization.
    // (Busy is recorded when a document completes, so a document longer
    // than the interval can push one tick above 1.0 and starve the
    // next; the time series is still exact in aggregate.)
    FieldDbl(&out, &sf, "utilization",
             static_cast<double>(s.counter("shard_busy_us")) /
                 static_cast<double>(interval));
    out.push_back('}');
  }
  out.push_back(']');
  if (progress != nullptr) {
    out += ",\"progress\":{";
    bool pf = true;
    Field(&out, &pf, "total_docs",
          progress->total_docs.load(std::memory_order_relaxed));
    Field(&out, &pf, "cursor",
          progress->cursor.load(std::memory_order_relaxed));
    Field(&out, &pf, "docs_done",
          progress->docs_done.load(std::memory_order_relaxed));
    Field(&out, &pf, "bytes_done",
          progress->bytes_done.load(std::memory_order_relaxed));
    out += ",\"active\":";
    out += progress->active.load(std::memory_order_relaxed) ? "true"
                                                            : "false";
    out.push_back('}');
  }
  out += ",\"process\":{" + cur.process.ToJsonFields() + "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Watch frame
// ---------------------------------------------------------------------------

std::string RenderWatchFrame(const StatsSnapshot& cur,
                             const StatsSnapshot& delta,
                             const PulseProgress* progress) {
  const SinkSnapshot cur_agg = cur.Aggregate();
  const SinkSnapshot d_agg = delta.Aggregate();
  const double interval_s = static_cast<double>(delta.t_us) / 1e6;
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "NWPulse  t=%.1fs  docs=%" PRIu64,
                static_cast<double>(cur.t_us) / 1e6,
                cur_agg.counter("engine_docs"));
  out += buf;
  if (progress != nullptr) {
    uint64_t total = progress->total_docs.load(std::memory_order_relaxed);
    uint64_t done = progress->docs_done.load(std::memory_order_relaxed);
    std::snprintf(buf, sizeof(buf), "  run %" PRIu64 "/%" PRIu64 " (%.1f%%)",
                  done, total,
                  total == 0 ? 100.0
                             : 100.0 * static_cast<double>(done) /
                                   static_cast<double>(total));
    out += buf;
  }
  out.push_back('\n');
  if (interval_s > 0) {
    std::snprintf(buf, sizeof(buf),
                  "rate     %.1f docs/s  %.2f MB/s  %.2f Mpos/s\n",
                  static_cast<double>(d_agg.counter("engine_docs")) /
                      interval_s,
                  static_cast<double>(d_agg.counter("stream_bytes")) /
                      interval_s / 1e6,
                  static_cast<double>(d_agg.counter("engine_positions")) /
                      interval_s / 1e6);
    out += buf;
  } else {
    out += "rate     (first interval)\n";
  }
  const HistogramSnapshot& lat = d_agg.histogram("doc_latency_us");
  uint64_t fh = d_agg.counter("frozen_hits");
  uint64_t ft = fh + d_agg.counter("frozen_misses");
  char rate[16] = "n/a";
  if (ft > 0) {
    std::snprintf(rate, sizeof(rate), "%.4f",
                  static_cast<double>(fh) / static_cast<double>(ft));
  }
  std::snprintf(buf, sizeof(buf),
                "latency  n=%" PRIu64 " p50=%" PRIu64 "us p99=%" PRIu64
                "us  frozen hit_rate=%s\n",
                lat.count, lat.Percentile(0.50), lat.Percentile(0.99), rate);
  out += buf;
  for (size_t i = 0; i < delta.sinks.size(); ++i) {
    const SinkSnapshot& s = delta.sinks[i];
    // Shard rows only — the "main" sink has no shard loop to watch.
    if (cur.sinks[i].counter("shard_docs") == 0 &&
        s.counter("shard_docs") == 0) {
      continue;
    }
    double util = delta.t_us == 0
                      ? 0.0
                      : static_cast<double>(s.counter("shard_busy_us")) /
                            static_cast<double>(delta.t_us);
    std::snprintf(buf, sizeof(buf),
                  "%-8s +%" PRIu64 " docs  +%" PRIu64 " pos  busy %.1f%%\n",
                  delta.labels[i].c_str(), s.counter("shard_docs"),
                  s.counter("shard_positions"), 100.0 * util);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

PulseSampler::PulseSampler(const StatsRegistry* registry, Options opts)
    : registry_(registry), opts_(opts) {
  NW_CHECK_MSG(registry != nullptr, "PulseSampler needs a registry");
  NW_CHECK_MSG(opts_.interval_ms > 0, "--stats-interval must be >= 1 ms");
  if (opts_.watch && opts_.watch_out == nullptr) opts_.watch_out = stderr;
#if defined(NW_HAVE_RUSAGE)
  watch_tty_ = opts_.watch && isatty(fileno(opts_.watch_out)) == 1;
#endif
}

PulseSampler::~PulseSampler() { Stop(); }

void PulseSampler::Start() {
  NW_CHECK_MSG(!started_, "PulseSampler::Start() may be called once");
  started_ = true;
  prev_ = CaptureSnapshot(*registry_);
  if (opts_.jsonl != nullptr) {
    std::string header = RenderPulseStart(prev_, opts_.interval_ms);
    header.push_back('\n');
    std::fputs(header.c_str(), opts_.jsonl);
    std::fflush(opts_.jsonl);
  }
  thread_ = std::thread([this] { Loop(); });
}

void PulseSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms),
                 [this] { return stop_; });
    if (stop_) return;
    // Tick without the lock: tick state (prev_, seq_) is only touched by
    // this thread until after the join in Stop().
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void PulseSampler::Tick() {
  StatsSnapshot cur = CaptureSnapshot(*registry_);
  StatsSnapshot delta = SnapshotDelta(prev_, cur);
  if (opts_.jsonl != nullptr) {
    std::string line = RenderPulseRecord(cur, delta, seq_, opts_.progress);
    line.push_back('\n');
    std::fputs(line.c_str(), opts_.jsonl);
    std::fflush(opts_.jsonl);
  }
  if (opts_.watch) {
    std::string frame = RenderWatchFrame(cur, delta, opts_.progress);
    size_t lines = 0;
    for (char c : frame) lines += c == '\n';
    std::string draw;
    if (watch_tty_ && watch_lines_ > 0) {
      // Rewind over the previous frame and clear each line as we redraw.
      char up[16];
      std::snprintf(up, sizeof(up), "\x1b[%zuA", watch_lines_);
      draw += up;
      std::string cleared;
      for (char c : frame) {
        if (cleared.empty() || cleared.back() == '\n') cleared += "\x1b[2K";
        cleared.push_back(c);
      }
      draw += cleared;
    } else {
      draw = frame;
    }
    std::fputs(draw.c_str(), opts_.watch_out);
    std::fflush(opts_.watch_out);
    watch_lines_ = lines;
  }
  prev_ = std::move(cur);
  ++seq_;
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Prometheus / OpenMetrics exposition
// ---------------------------------------------------------------------------

namespace {

/// Escapes a Prometheus label value: backslash, double quote, newline.
void AppendPromLabelValue(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: out->push_back(c);
    }
  }
}

void PromHeader(std::string* out, const std::string& name, const char* help,
                const char* type) {
  *out += "# HELP " + name + " ";
  *out += help;
  *out += "\n# TYPE " + name + " ";
  *out += type;
  out->push_back('\n');
}

/// One series line: `name{label="value",...} <uint value>`.
void PromLine(std::string* out, const std::string& name,
              std::initializer_list<std::pair<const char*, std::string>>
                  labels,
              uint64_t value) {
  *out += name;
  if (labels.size() > 0) {
    out->push_back('{');
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out->push_back(',');
      first = false;
      *out += k;
      *out += "=\"";
      AppendPromLabelValue(out, v);
      out->push_back('"');
    }
    out->push_back('}');
  }
  out->push_back(' ');
  AppendNum(out, value);
  out->push_back('\n');
}

void PromLineDbl(std::string* out, const std::string& name, double value) {
  *out += name;
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %.6f\n", value);
  *out += buf;
}

}  // namespace

std::string StatsRegistry::RenderProm() const {
  const StatsSnapshot snap = CaptureSnapshot(*this);
  std::string out;
  // Counter families: nw_<name>_total, one series per sink.
  const std::vector<SinkCounterField>& counters = SinkCounterFields();
  for (size_t f = 0; f < counters.size(); ++f) {
    std::string name = std::string("nw_") + counters[f].name + "_total";
    PromHeader(&out, name, counters[f].help, "counter");
    for (size_t i = 0; i < snap.sinks.size(); ++i) {
      PromLine(&out, name, {{"sink", snap.labels[i]}},
               snap.sinks[i].counters[f]);
    }
  }
  // Gauge families: nw_<name>.
  const std::vector<SinkGaugeField>& gauges = SinkGaugeFields();
  for (size_t f = 0; f < gauges.size(); ++f) {
    std::string name = std::string("nw_") + gauges[f].name;
    PromHeader(&out, name, gauges[f].help, "gauge");
    for (size_t i = 0; i < snap.sinks.size(); ++i) {
      PromLine(&out, name, {{"sink", snap.labels[i]}},
               snap.sinks[i].gauges[f]);
    }
  }
  // Histogram families: cumulative _bucket over the BucketLowerBound
  // boundaries (le = the NEXT bucket's lower bound — every sample in
  // bucket i is < BucketLowerBound(i+1)). Only buckets with samples are
  // emitted (976 mostly-empty series per histogram would drown the
  // exposition); `le` stays monotone because BucketLowerBound is.
  const std::vector<SinkHistogramField>& hists = SinkHistogramFields();
  for (size_t f = 0; f < hists.size(); ++f) {
    std::string name = std::string("nw_") + hists[f].name;
    PromHeader(&out, name, hists[f].help, "histogram");
    for (size_t i = 0; i < snap.sinks.size(); ++i) {
      const HistogramSnapshot& h = snap.sinks[i].histograms[f];
      uint64_t cum = 0;
      for (uint32_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) continue;
        cum += h.buckets[b];
        if (b + 1 >= Histogram::kBuckets) continue;  // folded into +Inf
        PromLine(
            &out, name + "_bucket",
            {{"sink", snap.labels[i]},
             {"le", std::to_string(Histogram::BucketLowerBound(b + 1))}},
            cum);
      }
      PromLine(&out, name + "_bucket",
               {{"sink", snap.labels[i]}, {"le", "+Inf"}}, h.count);
      PromLine(&out, name + "_sum", {{"sink", snap.labels[i]}}, h.sum);
      PromLine(&out, name + "_count", {{"sink", snap.labels[i]}}, h.count);
    }
  }
  // Per-query attribution series.
  PromHeader(&out, "nw_query_match_docs_total",
             "documents whose final accept set contains the query",
             "counter");
  for (size_t q = 0; q < snap.queries.size(); ++q) {
    PromLine(&out, "nw_query_match_docs_total",
             {{"query", std::to_string(q)}}, snap.queries[q].match_docs);
  }
  PromHeader(&out, "nw_query_accept_positions_total",
             "positions at which the query was observed accepting",
             "counter");
  for (size_t q = 0; q < snap.queries.size(); ++q) {
    PromLine(&out, "nw_query_accept_positions_total",
             {{"query", std::to_string(q)}},
             snap.queries[q].accept_positions);
  }
  PromHeader(&out, "nw_query_escalations_total",
             "overflow escalations attributed to the query", "counter");
  for (size_t q = 0; q < snap.queries.size(); ++q) {
    PromLine(&out, "nw_query_escalations_total",
             {{"query", std::to_string(q)}}, snap.queries[q].escalations);
  }
  PromHeader(&out, "nw_query_states_compiled",
             "automaton states out of lowering, before minimization",
             "gauge");
  for (size_t q = 0; q < snap.queries.size(); ++q) {
    PromLine(&out, "nw_query_states_compiled",
             {{"query", std::to_string(q)}}, snap.queries[q].states_compiled);
  }
  PromHeader(&out, "nw_query_states_final",
             "automaton states after minimization", "gauge");
  for (size_t q = 0; q < snap.queries.size(); ++q) {
    PromLine(&out, "nw_query_states_final", {{"query", std::to_string(q)}},
             snap.queries[q].states_final);
  }
  // Metadata: string entries as labels of one nw_info series, numeric
  // entries as nw_meta{key="..."} values.
  PromHeader(&out, "nw_info", "run metadata as labels", "gauge");
  {
    out += "nw_info{";
    bool first = true;
    for (const Meta& m : meta_) {
      if (m.is_num) continue;
      if (!first) out.push_back(',');
      first = false;
      out += m.key;
      out += "=\"";
      AppendPromLabelValue(&out, m.str);
      out.push_back('"');
    }
    out += "} 1\n";
  }
  PromHeader(&out, "nw_meta", "numeric run metadata by key", "gauge");
  for (const Meta& m : meta_) {
    if (!m.is_num) continue;
    PromLine(&out, "nw_meta", {{"key", m.key}}, m.num);
  }
  // Process-level machine context.
  PromHeader(&out, "nw_process_peak_rss_bytes",
             "peak resident set size from getrusage", "gauge");
  PromLine(&out, "nw_process_peak_rss_bytes", {},
           snap.process.rss_peak_kb * 1024);
  PromHeader(&out, "nw_process_cpu_user_seconds_total",
             "user CPU time from getrusage", "counter");
  PromLineDbl(&out, "nw_process_cpu_user_seconds_total",
              static_cast<double>(snap.process.cpu_user_us) / 1e6);
  PromHeader(&out, "nw_process_cpu_system_seconds_total",
             "system CPU time from getrusage", "counter");
  PromLineDbl(&out, "nw_process_cpu_system_seconds_total",
              static_cast<double>(snap.process.cpu_sys_us) / 1e6);
  PromHeader(&out, "nw_process_wall_seconds",
             "wall-clock time since process epoch", "gauge");
  PromLineDbl(&out, "nw_process_wall_seconds",
              static_cast<double>(snap.process.wall_us) / 1e6);
  return out;
}

void PulseSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // One closing tick after the writers are done: the trailing partial
  // interval lands in the series, so the deltas sum to the final totals.
  Tick();
}

}  // namespace nw
