// Tests for NWPulse (src/obs/pulse.h): snapshot capture fidelity, the
// delta engine's interval semantics — interval percentiles from
// bucket-subtracted histograms pinned against a sorted-vector oracle —
// the snapshot-under-write threading witness (run under TSan by CI: 8
// shard writers hammer their sinks while a sampler takes deltas, and the
// interval deltas must sum exactly to the final joined totals), the
// JSONL/watch renderers' NaN hygiene, the background sampler lifecycle,
// and the Prometheus exposition's shape.
#include "obs/pulse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------------
// Snapshot capture
// ---------------------------------------------------------------------------

TEST(SinkSnapshot, CaptureMirrorsTheLiveSink) {
  StatsSink sink;
  sink.engine_docs.Inc(7);
  sink.engine_positions.Add(1234);
  sink.stream_depth_hwm.SetMax(9);
  sink.doc_latency_us.Record(100);
  sink.doc_latency_us.Record(5000);
  SinkSnapshot snap = SinkSnapshot::Capture(sink);
  EXPECT_EQ(snap.counter("engine_docs"), 7u);
  EXPECT_EQ(snap.counter("engine_positions"), 1234u);
  EXPECT_EQ(snap.counter("frozen_hits"), 0u);
  EXPECT_EQ(snap.gauge("stream_depth_hwm"), 9u);
  const HistogramSnapshot& h = snap.histogram("doc_latency_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 5100u);
  EXPECT_EQ(h.max, 5000u);
  EXPECT_EQ(h.Percentile(0.5), sink.doc_latency_us.Percentile(0.5));
  EXPECT_EQ(h.Percentile(0.99), sink.doc_latency_us.Percentile(0.99));
  // The capture is a copy: later writes must not show in it.
  sink.engine_docs.Inc();
  EXPECT_EQ(snap.counter("engine_docs"), 7u);
}

TEST(SinkSnapshot, SchemaCoversEveryField) {
  // The schema tables drive capture, merge, and both wire renderings; a
  // field added to StatsSink without a schema row would silently vanish
  // from all of them. sizeof is the tripwire: it moves when a field is
  // added, and this count must move with it.
  size_t covered = SinkCounterFields().size() * sizeof(Counter) +
                   SinkGaugeFields().size() * sizeof(Gauge) +
                   SinkHistogramFields().size() * sizeof(Histogram);
  EXPECT_EQ(covered, sizeof(StatsSink))
      << "StatsSink has fields the schema tables do not cover";
}

TEST(StatsSnapshot, CaptureSeesAllSinksAndQueries) {
  StatsRegistry registry;
  StatsSink a, b;
  registry.Register("main", &a);
  registry.Register("shard/0", &b);
  QueryAttribution attr(2);
  attr.query(0).match_docs.Inc(3);
  attr.query(1).states_final.Set(11);
  attr.docs.Inc(4);
  registry.RegisterAttribution(&attr);
  a.engine_docs.Inc(4);
  b.shard_docs.Inc(2);
  StatsSnapshot snap = CaptureSnapshot(registry);
  ASSERT_EQ(snap.labels.size(), 2u);
  EXPECT_EQ(snap.labels[0], "main");
  EXPECT_EQ(snap.labels[1], "shard/0");
  EXPECT_EQ(snap.sinks[0].counter("engine_docs"), 4u);
  EXPECT_EQ(snap.sinks[1].counter("shard_docs"), 2u);
  EXPECT_EQ(snap.Aggregate().counter("engine_docs"), 4u);
  ASSERT_EQ(snap.queries.size(), 2u);
  EXPECT_EQ(snap.queries[0].match_docs, 3u);
  EXPECT_EQ(snap.queries[1].states_final, 11u);
  EXPECT_EQ(snap.attr_docs, 4u);
}

// ---------------------------------------------------------------------------
// Delta semantics
// ---------------------------------------------------------------------------

TEST(SnapshotDelta, CountersSubtractGaugesCarry) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  sink.engine_docs.Inc(10);
  sink.stream_depth_hwm.SetMax(5);
  StatsSnapshot first = CaptureSnapshot(registry);
  sink.engine_docs.Inc(3);
  sink.stream_depth_hwm.SetMax(8);
  StatsSnapshot second = CaptureSnapshot(registry);
  StatsSnapshot delta = SnapshotDelta(first, second);
  EXPECT_EQ(delta.sinks[0].counter("engine_docs"), 3u);
  // Gauges are not interval-decomposable; the delta carries the current.
  EXPECT_EQ(delta.sinks[0].gauge("stream_depth_hwm"), 8u);
  EXPECT_GE(second.t_us, first.t_us);
  EXPECT_EQ(delta.t_us, second.t_us - first.t_us);
}

TEST(SnapshotDelta, SinkRegisteredBetweenCapturesDeltasAgainstZero) {
  StatsRegistry registry;
  StatsSink a;
  registry.Register("main", &a);
  StatsSnapshot first = CaptureSnapshot(registry);
  StatsSink late;
  late.shard_docs.Inc(6);
  registry.Register("shard/0", &late);
  StatsSnapshot second = CaptureSnapshot(registry);
  StatsSnapshot delta = SnapshotDelta(first, second);
  ASSERT_EQ(delta.sinks.size(), 2u);
  EXPECT_EQ(delta.sinks[1].counter("shard_docs"), 6u);
}

// The acceptance pin: interval p50/p99 computed from bucket-subtracted
// histograms must equal the oracle percentile over ONLY the samples
// recorded inside the interval (bucket-lower-bound contract, same as
// Histogram::Percentile — the oracle mapping obs_test pins for the
// lifetime histogram).
TEST(SnapshotDelta, IntervalPercentilesMatchSortedVectorOracle) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  Rng rng(29);
  // Batch A: samples BEFORE the interval — skewed low so a lifetime
  // percentile would visibly disagree with the interval one.
  for (int i = 0; i < 4000; ++i) {
    sink.doc_latency_us.Record(rng.Below(64));
  }
  StatsSnapshot first = CaptureSnapshot(registry);
  // Batch B: the interval's samples, log-uniform across octaves.
  std::vector<uint64_t> interval_samples;
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.Below(uint64_t{1} << (1 + rng.Below(30)));
    interval_samples.push_back(v);
    sink.doc_latency_us.Record(v);
  }
  StatsSnapshot second = CaptureSnapshot(registry);
  StatsSnapshot delta = SnapshotDelta(first, second);
  const HistogramSnapshot& d = delta.sinks[0].histogram("doc_latency_us");
  ASSERT_EQ(d.count, interval_samples.size());
  std::sort(interval_samples.begin(), interval_samples.end());
  uint64_t sum = 0;
  for (uint64_t v : interval_samples) sum += v;
  EXPECT_EQ(d.sum, sum);
  for (double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(
        q * static_cast<double>(interval_samples.size()));
    if (static_cast<double>(rank) <
        q * static_cast<double>(interval_samples.size())) {
      ++rank;
    }
    if (rank == 0) rank = 1;
    uint64_t oracle = interval_samples[rank - 1];
    EXPECT_EQ(d.Percentile(q),
              Histogram::BucketLowerBound(Histogram::BucketIndex(oracle)))
        << "q=" << q;
  }
  // And the lifetime percentile really is a different number here (the
  // interval view is not a relabeled cumulative view).
  EXPECT_NE(second.sinks[0].histogram("doc_latency_us").Percentile(0.5),
            d.Percentile(0.5));
}

// ---------------------------------------------------------------------------
// Snapshot-under-write witness (TSan) + exact delta accounting
// ---------------------------------------------------------------------------

TEST(SnapshotDelta, ConcurrentWritersDeltasSumToJoinedTotals) {
  constexpr size_t kShards = 8;
  constexpr uint64_t kDocsPerShard = 20000;
  StatsRegistry registry;
  std::vector<std::unique_ptr<StatsSink>> sinks;
  for (size_t s = 0; s < kShards; ++s) {
    sinks.push_back(std::make_unique<StatsSink>());
    registry.Register("shard/" + std::to_string(s), sinks.back().get());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      Rng rng(100 + s);
      for (uint64_t i = 0; i < kDocsPerShard; ++i) {
        sinks[s]->shard_docs.Inc();
        sinks[s]->shard_bytes.Add(17 + (i % 31));
        sinks[s]->doc_latency_us.Record(rng.Below(1u << 12));
      }
    });
  }
  // The sampler side: capture → delta → accumulate, concurrently with
  // the writers (this is the TSan witness — relaxed-atomic cells must
  // make the scrape race-free). Each delta must be internally sane.
  StatsSnapshot prev = CaptureSnapshot(registry);
  const StatsSnapshot baseline = prev;
  uint64_t acc_docs = 0, acc_bytes = 0, acc_lat = 0;
  for (int tick = 0; tick < 50; ++tick) {
    StatsSnapshot cur = CaptureSnapshot(registry);
    StatsSnapshot delta = SnapshotDelta(prev, cur);
    SinkSnapshot d = delta.Aggregate();
    acc_docs += d.counter("shard_docs");
    acc_bytes += d.counter("shard_bytes");
    acc_lat += d.histogram("doc_latency_us").count;
    // A mid-run capture may be torn ACROSS fields, never within one:
    // deltas of monotone counters are non-negative by construction, and
    // rendering any tick must stay valid JSON.
    std::string line = RenderPulseRecord(cur, delta, tick, nullptr);
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("inf"), std::string::npos);
    prev = std::move(cur);
  }
  for (std::thread& t : writers) t.join();
  // Final delta after the join picks up the tail; then the accumulated
  // interval deltas must equal the joined totals EXACTLY.
  StatsSnapshot last = CaptureSnapshot(registry);
  SinkSnapshot d = SnapshotDelta(prev, last).Aggregate();
  acc_docs += d.counter("shard_docs");
  acc_bytes += d.counter("shard_bytes");
  acc_lat += d.histogram("doc_latency_us").count;
  SinkSnapshot base = baseline.Aggregate();
  SinkSnapshot total = last.Aggregate();
  EXPECT_EQ(base.counter("shard_docs") + acc_docs,
            total.counter("shard_docs"));
  EXPECT_EQ(total.counter("shard_docs"), kShards * kDocsPerShard);
  EXPECT_EQ(base.counter("shard_bytes") + acc_bytes,
            total.counter("shard_bytes"));
  EXPECT_EQ(base.histogram("doc_latency_us").count + acc_lat,
            total.histogram("doc_latency_us").count);
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

TEST(RenderPulse, AllZeroSinkRendersNullRatesNotNaN) {
  // Satellite regression: every ratio on a zero interval (0/0 → NaN,
  // x/0 → Inf) must render as JSON null, never as a bare nan/inf token.
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  StatsSnapshot snap = CaptureSnapshot(registry);
  StatsSnapshot zero_delta = SnapshotDelta(snap, snap);
  ASSERT_EQ(zero_delta.t_us, 0u);
  std::string line = RenderPulseRecord(snap, zero_delta, 0, nullptr);
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  EXPECT_NE(line.find("\"docs_per_s\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"frozen_hit_rate\":null"), std::string::npos);
  EXPECT_NE(line.find("\"utilization\":null"), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"pulse\""), std::string::npos);
}

TEST(RenderPulse, StartRecordCarriesBaselineTotals) {
  StatsRegistry registry;
  StatsSink sink;
  sink.engine_docs.Inc(5);
  registry.Register("main", &sink);
  std::string head = RenderPulseStart(CaptureSnapshot(registry), 250);
  EXPECT_NE(head.find("\"type\":\"pulse_start\""), std::string::npos);
  EXPECT_NE(head.find("\"version\":1"), std::string::npos);
  EXPECT_NE(head.find("\"interval_ms\":250"), std::string::npos);
  EXPECT_NE(head.find("\"labels\":[\"main\"]"), std::string::npos);
  EXPECT_NE(head.find("\"engine_docs\":5"), std::string::npos);
}

TEST(RenderPulse, WatchFrameShowsProgressAndShards) {
  StatsRegistry registry;
  StatsSink main_sink, shard;
  registry.Register("main", &main_sink);
  registry.Register("shard/0", &shard);
  StatsSnapshot before = CaptureSnapshot(registry);
  shard.shard_docs.Inc(3);
  shard.shard_positions.Add(400);
  StatsSnapshot after = CaptureSnapshot(registry);
  PulseProgress progress;
  progress.Reset(10);
  progress.docs_done.fetch_add(3);
  std::string frame =
      RenderWatchFrame(after, SnapshotDelta(before, after), &progress);
  EXPECT_NE(frame.find("NWPulse"), std::string::npos);
  EXPECT_NE(frame.find("run 3/10"), std::string::npos);
  EXPECT_NE(frame.find("shard/0"), std::string::npos);
  // The attribution-free "main" sink has no shard row.
  EXPECT_EQ(frame.find("main"), std::string::npos) << frame;
}

TEST(AppendJsonDouble, NonFiniteBecomesNull) {
  std::string out;
  AppendJsonDouble(&out, 0.5);
  out.push_back(' ');
  AppendJsonDouble(&out, std::numeric_limits<double>::quiet_NaN());
  out.push_back(' ');
  AppendJsonDouble(&out, std::numeric_limits<double>::infinity());
  out.push_back(' ');
  AppendJsonDouble(&out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "0.5000 null null null");
}

TEST(ProcessSample, ReportsPlausibleMachineContext) {
  ProcessSample a = SampleProcess();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(a.rss_peak_kb, 0u);  // a running test binary is resident
#endif
  // Burn a little CPU so the clocks visibly advance between samples.
  volatile uint64_t x = 0;
  for (uint64_t i = 0; i < 20000000; ++i) x += i;
  ProcessSample b = SampleProcess();
  EXPECT_GE(b.wall_us, a.wall_us);
  EXPECT_GE(b.cpu_user_us + b.cpu_sys_us, a.cpu_user_us + a.cpu_sys_us);
  EXPECT_GE(b.rss_peak_kb, a.rss_peak_kb);
  std::string fields = b.ToJsonFields();
  EXPECT_NE(fields.find("\"rss_peak_kb\":"), std::string::npos);
  EXPECT_NE(fields.find("\"wall_us\":"), std::string::npos);
}

// wall_us counts from program load, not from the first clock reading: a
// process whose first sample comes after 20 ms of work reports >= 20 ms.
TEST(ProcessSample, WallTimeCountsFromProgramLoad) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(SampleProcess().wall_us, 20000u);
}

// ---------------------------------------------------------------------------
// Sampler lifecycle
// ---------------------------------------------------------------------------

TEST(PulseSampler, WritesHeaderThenTicksAndFinalTickIsExact) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  PulseSampler::Options opts;
  opts.interval_ms = 5;
  opts.jsonl = f;
  {
    PulseSampler sampler(&registry, opts);
    sampler.Start();
    for (int i = 0; i < 4000; ++i) {
      sink.engine_docs.Inc();
      sink.doc_latency_us.Record(i % 97);
      if (i % 1000 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
      }
    }
    sampler.Stop();
    EXPECT_GE(sampler.ticks(), 1u);
    sampler.Stop();  // idempotent
  }
  std::rewind(f);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  ASSERT_FALSE(content.empty());
  // One JSON object per line: header first, then pulses; the last tick
  // (taken inside Stop, after the writer is done) must carry the exact
  // end-of-run total.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < content.size()) {
    size_t nl = content.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("{\"type\":\"pulse_start\""), 0u);
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"type\":\"pulse\""), 0u) << lines[i];
    EXPECT_EQ(lines[i].back(), '}');
    EXPECT_EQ(lines[i].find("nan"), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"engine_docs\":4000"), std::string::npos)
      << "final tick must see the joined total: " << lines.back();
}

TEST(PulseSampler, WatchModeRewritesFrames) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  PulseSampler::Options opts;
  opts.interval_ms = 2;
  opts.watch = true;
  opts.watch_out = f;  // not a tty: frames append, no ANSI rewind
  {
    PulseSampler sampler(&registry, opts);
    sampler.Start();
    sink.engine_docs.Inc(12);
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    sampler.Stop();
  }
  std::rewind(f);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string content(buf, n);
  EXPECT_NE(content.find("NWPulse"), std::string::npos);
  EXPECT_NE(content.find("docs=12"), std::string::npos);
  EXPECT_EQ(content.find("\x1b["), std::string::npos);  // no ANSI off-tty
}

// ---------------------------------------------------------------------------
// Live progress through the serving layer
// ---------------------------------------------------------------------------

TEST(PulseProgress, ShardedEvaluatorPublishesCompletion) {
  Alphabet alphabet;
  std::vector<Query> queries;
  for (const char* text : {"/a", "//b"}) {
    queries.push_back(ParseQuery(text, &alphabet).Take());
  }
  alphabet.Intern("#text");
  Symbol other = alphabet.Intern("%other");
  OptimizedBank bank =
      OptimizeBank(queries, alphabet.size(), OptOptions::All());
  bank.shared->ExploreAll(1u << 16, nullptr);
  FrozenBank frozen = FrozenBank::Freeze(*bank.shared);
  ShardedEvaluator evaluator(&frozen, alphabet.size(), other, 2);
  std::vector<std::string> corpus;
  size_t total_bytes = 0;
  Alphabet gen;
  gen.Intern("a");
  gen.Intern("b");
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    corpus.push_back(RandomXmlDocument(&rng, gen, 200, 6));
    total_bytes += corpus.back().size();
  }
  EXPECT_FALSE(evaluator.progress().active.load());
  evaluator.EvaluateCorpus(corpus, alphabet, false);
  const PulseProgress& p = evaluator.progress();
  EXPECT_FALSE(p.active.load());
  EXPECT_EQ(p.total_docs.load(), corpus.size());
  EXPECT_EQ(p.docs_done.load(), corpus.size());
  EXPECT_EQ(p.bytes_done.load(), total_bytes);
  EXPECT_GE(p.cursor.load(), corpus.size());
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(RenderProm, ExposesSchemaFamiliesWithSinkLabels) {
  StatsRegistry registry;
  StatsSink main_sink, shard;
  registry.Register("main", &main_sink);
  registry.Register("shard/0", &shard);
  registry.SetMeta("mode", "frozen");
  registry.SetMeta("opt", "all");
  registry.SetMetaNum("threads", 2);
  main_sink.engine_docs.Inc(3);
  shard.shard_docs.Inc(2);
  shard.doc_latency_us.Record(100);
  shard.doc_latency_us.Record(90);
  shard.doc_latency_us.Record(250);
  QueryAttribution attr(1);
  attr.query(0).match_docs.Inc(2);
  attr.query(0).states_final.Set(4);
  registry.RegisterAttribution(&attr);
  std::string prom = registry.RenderProm();
  EXPECT_NE(prom.find("# HELP nw_engine_docs_total "), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nw_engine_docs_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_engine_docs_total{sink=\"main\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_shard_docs_total{sink=\"shard/0\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE nw_doc_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: all three samples are <= the +Inf bound, and
  // _count equals the +Inf bucket.
  EXPECT_NE(
      prom.find("nw_doc_latency_us_bucket{sink=\"shard/0\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(prom.find("nw_doc_latency_us_count{sink=\"shard/0\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_doc_latency_us_sum{sink=\"shard/0\"} 440"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_query_match_docs_total{query=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_query_states_final{query=\"0\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_info{mode=\"frozen\",opt=\"all\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("nw_meta{key=\"threads\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nw_process_peak_rss_bytes gauge"),
            std::string::npos);
  EXPECT_EQ(prom.find("nan"), std::string::npos);
}

TEST(RenderProm, BucketBoundariesAreMonotoneCumulative) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    sink.doc_latency_us.Record(rng.Below(uint64_t{1} << (1 + rng.Below(20))));
  }
  std::string prom = registry.RenderProm();
  // Walk the doc_latency_us bucket lines: le strictly increases, counts
  // never decrease, and the +Inf bucket equals _count.
  uint64_t prev_le = 0, prev_cum = 0, inf_cum = 0;
  bool saw_bucket = false;
  size_t pos = 0;
  const std::string needle = "nw_doc_latency_us_bucket{sink=\"main\",le=\"";
  while ((pos = prom.find(needle, pos)) != std::string::npos) {
    size_t vstart = pos + needle.size();
    size_t vend = prom.find('"', vstart);
    std::string le = prom.substr(vstart, vend - vstart);
    uint64_t cum = std::stoull(prom.substr(prom.find('}', vend) + 2));
    if (le == "+Inf") {
      inf_cum = cum;
    } else {
      uint64_t le_v = std::stoull(le);
      if (saw_bucket) {
        EXPECT_GT(le_v, prev_le);
        EXPECT_GE(cum, prev_cum);
      }
      prev_le = le_v;
      prev_cum = cum;
      saw_bucket = true;
    }
    pos = vend;
  }
  ASSERT_TRUE(saw_bucket);
  EXPECT_GE(inf_cum, prev_cum);
  EXPECT_EQ(inf_cum, 2000u);
}

TEST(RenderProm, LabelValuesAreEscaped) {
  StatsRegistry registry;
  StatsSink sink;
  registry.Register("main", &sink);
  registry.SetMeta("mode", "a\"b\\c\nd");
  std::string prom = registry.RenderProm();
  EXPECT_NE(prom.find("nw_info{mode=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace nw
