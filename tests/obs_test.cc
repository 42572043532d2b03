// Tests for the NWStats observability layer (src/obs): histogram math
// against a sorted-vector oracle, per-shard sink merging, the
// single-writer/concurrent-reader threading contract (run under TSan by
// CI), the registry's stable JSON rendering, and the end-to-end
// differential guarantee — attaching sinks must not change any query
// result while the counters must match independently computed oracles.
#include "obs/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Values below kSub get exact unit buckets.
  for (uint64_t v = 0; v < Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<uint32_t>(v)), v);
  }
  // BucketLowerBound is the left inverse of BucketIndex on lower bounds.
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    uint64_t lb = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lb), i) << "bucket " << i;
  }
  // Powers of two start fresh octaves; one-below stays in the previous.
  EXPECT_EQ(Histogram::BucketIndex(16), Histogram::kSub);
  EXPECT_EQ(Histogram::BucketIndex(15), 15u);
  EXPECT_LT(Histogram::BucketIndex(31), Histogram::BucketIndex(32));
}

TEST(Histogram, BucketIndexIsMonotoneWithBoundedError) {
  Rng rng(3);
  uint64_t prev = 0;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform samples cover every octave a latency could land in.
    uint64_t v = rng.Below(uint64_t{1} << (1 + rng.Below(50)));
    uint32_t b = Histogram::BucketIndex(v);
    uint64_t lb = Histogram::BucketLowerBound(b);
    EXPECT_LE(lb, v);
    // Fixed relative error: the bucket's lower bound is within 1/kSub.
    EXPECT_LE(v - lb, lb / Histogram::kSub);
    if (v >= prev) {
      EXPECT_GE(b, Histogram::BucketIndex(prev));
    }
    prev = v;
  }
}

TEST(Histogram, PercentileMatchesSortedVectorOracle) {
  Histogram h;
  std::vector<uint64_t> samples;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.Below(uint64_t{1} << (1 + rng.Below(30)));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.max(), samples.back());
  for (double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    // The oracle value at rank ceil(q*n); Percentile reports its bucket's
    // lower bound, which is the histogram's stated contract.
    size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (static_cast<double>(rank) < q * static_cast<double>(samples.size())) {
      ++rank;
    }
    if (rank == 0) rank = 1;
    uint64_t oracle = samples[rank - 1];
    EXPECT_EQ(h.Percentile(q),
              Histogram::BucketLowerBound(Histogram::BucketIndex(oracle)))
        << "q=" << q;
  }
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(Histogram, MergeOfPerShardInstancesEqualsUnion) {
  Histogram shard_a, shard_b, merged, oracle;
  Rng rng(29);
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.Below(100000);
    (i % 2 == 0 ? shard_a : shard_b).Record(v);
    oracle.Record(v);
  }
  merged.MergeFrom(shard_a);
  merged.MergeFrom(shard_b);
  EXPECT_EQ(merged.count(), oracle.count());
  EXPECT_EQ(merged.sum(), oracle.sum());
  EXPECT_EQ(merged.max(), oracle.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.Percentile(q), oracle.Percentile(q)) << "q=" << q;
  }
}

TEST(Metrics, CounterAndGaugeMerge) {
  Counter a, b;
  a.Inc();
  a.Add(41);
  b.Add(8);
  a.MergeFrom(b);
  EXPECT_EQ(a.value(), 50u);
  Gauge g, h;
  g.SetMax(7);
  g.SetMax(3);  // lower: must not regress
  h.Set(9);
  EXPECT_EQ(g.value(), 7u);
  g.MergeMaxFrom(h);
  EXPECT_EQ(g.value(), 9u);
}

// ---------------------------------------------------------------------------
// Threading contract: one writer per sink, readers aggregate concurrently.
// This is the TSan witness for the relaxed load+store increment scheme.
// ---------------------------------------------------------------------------

TEST(StatsSink, ConcurrentShardWritersWithConcurrentReader) {
  constexpr size_t kShards = 4;
  constexpr uint64_t kIncrements = 50000;
  std::vector<StatsSink> sinks(kShards);
  std::atomic<bool> stop{false};
  // A reader scraping mid-run (the daemon pattern): values it sees are
  // snapshots, but it must be data-race-free and never see a value above
  // the true total.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      StatsSink agg;
      for (const StatsSink& s : sinks) agg.MergeFrom(s);
      EXPECT_LE(agg.frozen_hits.value(), kShards * kIncrements);
      EXPECT_LE(agg.doc_latency_us.count(), kShards * kIncrements);
    }
  });
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kShards; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        sinks[w].frozen_hits.Inc();
        sinks[w].doc_latency_us.Record(i % 1000);
        sinks[w].stream_depth_hwm.SetMax(i % 64);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  // After the join the merge is exact.
  StatsSink agg;
  for (const StatsSink& s : sinks) agg.MergeFrom(s);
  EXPECT_EQ(agg.frozen_hits.value(), kShards * kIncrements);
  EXPECT_EQ(agg.doc_latency_us.count(), kShards * kIncrements);
  EXPECT_EQ(agg.stream_depth_hwm.value(), 63u);
}

// ---------------------------------------------------------------------------
// Registry rendering
// ---------------------------------------------------------------------------

TEST(StatsRegistry, JsonHasTheDocumentedShape) {
  StatsSink shard0, shard1;
  shard0.engine_docs.Add(3);
  shard0.doc_latency_us.Record(120);
  shard0.shard_docs.Add(3);
  shard1.engine_docs.Add(2);
  shard1.doc_latency_us.Record(80);
  shard1.shard_docs.Add(2);
  StatsRegistry reg;
  reg.SetMeta("mode", "frozen");
  reg.SetMetaNum("queries", 7);
  reg.Register("shard/0", &shard0);
  reg.Register("shard/1", &shard1);
  std::string json = reg.RenderJson();
  for (const char* key :
       {"\"meta\"", "\"mode\":\"frozen\"", "\"queries\":7", "\"stream\"",
        "\"engine\"", "\"documents\":5", "\"doc_latency_us\"", "\"p50\"",
        "\"p99\"", "\"bank\"", "\"frozen\"", "\"hit_rate\"", "\"serve\"",
        "\"shards\"", "\"label\":\"shard/0\"", "\"label\":\"shard/1\"",
        // NWProf sections are always present, empty when unattached.
        "\"per_query\"", "\"compile\"", "\"total_us\"", "\"phases\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Aggregation sums across the registered sinks.
  StatsSink agg;
  reg.Aggregate(&agg);
  EXPECT_EQ(agg.engine_docs.value(), 5u);
  EXPECT_EQ(agg.doc_latency_us.count(), 2u);
}

TEST(StatsRegistry, FrozenHitRateIsNullWithoutTraffic) {
  // A sink with zero frozen steps has no defined hit rate: JSON renders
  // null, text renders n/a. (ServeStats::hit_rate() itself stays 1.0 on
  // empty — serve callers treat "no misses" as perfect — but the report
  // must not present a made-up number.)
  StatsSink idle;
  idle.engine_docs.Add(4);  // traffic elsewhere doesn't create a rate
  StatsRegistry reg;
  reg.Register("main", &idle);
  EXPECT_NE(reg.RenderJson().find("\"hit_rate\":null"), std::string::npos);
  EXPECT_NE(reg.RenderText().find("hit_rate=n/a"), std::string::npos);

  StatsSink busy;
  busy.frozen_hits.Add(3);
  busy.frozen_misses.Add(1);
  StatsRegistry reg2;
  reg2.Register("main", &busy);
  EXPECT_NE(reg2.RenderJson().find("\"hit_rate\":0.7500"),
            std::string::npos);
  EXPECT_EQ(reg2.RenderJson().find("\"hit_rate\":null"), std::string::npos);
  EXPECT_EQ(reg2.RenderText().find("n/a"), std::string::npos);
}

TEST(StatsRegistry, AllZeroSinkRendersFiniteJson) {
  // Satellite regression for the double-rendering audit: a registry over
  // a sink that never saw traffic exercises every ratio key's 0/0 path
  // (utilization, hit_rate, rates) — none may leak a bare nan/inf token;
  // the degenerate ones must render as JSON null.
  StatsSink zero;
  StatsRegistry reg;
  reg.Register("main", &zero);
  std::string json = reg.RenderJson();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\":null"), std::string::npos);
}

TEST(StatsRegistry, JsonStringEscaping) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(StatsRegistry, TextRenderingMentionsEveryLayer) {
  StatsSink sink;
  sink.stream_bytes.Add(10);
  StatsRegistry reg;
  reg.Register("main", &sink);
  std::string text = reg.RenderText();
  for (const char* word : {"stream", "engine", "latency", "bank", "frozen",
                           "main"}) {
    EXPECT_NE(text.find(word), std::string::npos) << "missing " << word;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented layers vs oracle counts, and the differential
// stats-on/off guarantee.
// ---------------------------------------------------------------------------

TEST(XmlTokenStream, TalliesMatchTheMaterializedWord) {
  Alphabet gen;
  for (const char* n : {"a", "b", "c"}) gen.Intern(n);
  Rng rng(5);
  std::string doc = RandomXmlDocument(&rng, gen, 500, 8);
  // Oracle: the materialized nested word of the same document.
  Alphabet oracle_alpha;
  NestedWord oracle = XmlToNestedWord(doc, &oracle_alpha);
  size_t calls = 0, returns = 0, internals = 0;
  for (size_t i = 0; i < oracle.size(); ++i) {
    calls += oracle.kind(i) == Kind::kCall;
    returns += oracle.kind(i) == Kind::kReturn;
    internals += oracle.kind(i) == Kind::kInternal;
  }
  StatsSink sink;
  Alphabet alpha;
  {
    XmlTokenStream stream(doc, &alpha);
    stream.set_stats(&sink);
    TaggedSymbol t;
    while (stream.Next(&t)) {
    }
  }
  EXPECT_EQ(sink.stream_bytes.value(), doc.size());
  EXPECT_EQ(sink.stream_tokens.value(), oracle.size());
  EXPECT_EQ(sink.stream_calls.value(), calls);
  EXPECT_EQ(sink.stream_returns.value(), returns);
  EXPECT_EQ(sink.stream_internals.value(), internals);
  EXPECT_GT(sink.stream_depth_hwm.value(), 0u);
}

TEST(XmlTokenStream, EarlyStopFlushesTheConsumedPrefixOnce) {
  Alphabet alpha;
  StatsSink sink;
  const std::string doc = "<a><b>text</b></a>";
  {
    XmlTokenStream stream(doc, &alpha);
    stream.set_stats(&sink);
    TaggedSymbol t;
    ASSERT_TRUE(stream.Next(&t));  // consumer stops after one token
  }
  // Destructor flushed exactly the consumed prefix, exactly once.
  EXPECT_EQ(sink.stream_tokens.value(), 1u);
  EXPECT_EQ(sink.stream_calls.value(), 1u);
  EXPECT_EQ(sink.stream_bytes.value(), 3u);  // "<a>"
}

TEST(QueryEngine, StatsOnAndOffAreByteIdentical) {
  const size_t kSymbols = 4;
  Alphabet gen;
  for (const char* n : {"a", "b", "c"}) gen.Intern(n);
  // The engines resolve names read-only, so their alphabet must cover
  // the 4-symbol space: the element names plus "#text".
  Alphabet sigma = gen;
  sigma.Intern("#text");
  Nwa wf = WellFormedChecker(kSymbols);
  Nwa deep = MinDepthQuery(3, kSymbols);
  QueryEngine off(kSymbols), on(kSymbols);
  StatsSink sink;
  on.set_stats(&sink);
  for (QueryEngine* e : {&off, &on}) {
    e->set_other_symbol(0);
    e->set_track_matches(true);
    e->Add(&wf);
    e->Add(&deep);
  }
  // The "on" engine also carries the full NWProf attribution table — the
  // differential guarantee covers attribution, not just the aggregates.
  QueryAttribution attr(on.num_queries());
  on.set_attribution(&attr);
  Rng rng(13);
  size_t oracle_positions = 0;
  for (int d = 0; d < 8; ++d) {
    std::string doc = RandomXmlDocument(&rng, gen, 200 + d * 50, 4 + d);
    std::vector<bool> r_off = off.RunAll(doc, &sigma);
    std::vector<bool> r_on = on.RunAll(doc, &sigma);
    EXPECT_EQ(r_off, r_on) << "doc " << d;
    for (size_t q = 0; q < r_off.size(); ++q) {
      EXPECT_EQ(off.first_match(q), on.first_match(q)) << "doc " << d;
    }
    Alphabet scratch;
    oracle_positions += XmlToNestedWord(doc, &scratch).size();
  }
  // Oracle counts: the sink saw every document and every position, and
  // classified them all onto the SoA path.
  EXPECT_EQ(sink.engine_docs.value(), 8u);
  EXPECT_EQ(sink.engine_docs_soa.value(), 8u);
  EXPECT_EQ(sink.engine_docs_bank.value(), 0u);
  EXPECT_EQ(sink.engine_positions.value(), oracle_positions);
  EXPECT_EQ(sink.engine_positions.value(), on.positions());
  EXPECT_EQ(sink.doc_latency_us.count(), 8u);
  EXPECT_EQ(sink.stream_tokens.value(), oracle_positions);
  // Attribution totals are pinned to the engine aggregates, and the
  // well-formedness query matched every generator document.
  EXPECT_EQ(attr.docs.value(), sink.engine_docs.value());
  EXPECT_EQ(attr.positions.value(), sink.engine_positions.value());
  EXPECT_EQ(attr.query(0).match_docs.value(), 8u);
  EXPECT_GT(attr.query(0).accept_positions.value(), 0u);
}

TEST(SplitTopLevel, StatsOverloadRecordsChunkShape) {
  const std::string doc = "<a><b>x</b></a><c/>text<d></d>";
  StatsSink sink;
  std::vector<std::string> with = SplitTopLevel(doc, &sink);
  EXPECT_EQ(with, SplitTopLevel(doc));  // differential: same chunks
  EXPECT_EQ(sink.split_chunks.value(), with.size());
  EXPECT_EQ(sink.split_chunk_bytes.count(), with.size());
  size_t total = 0, largest = 0;
  for (const std::string& c : with) {
    total += c.size();
    largest = std::max(largest, c.size());
  }
  EXPECT_EQ(sink.split_chunk_bytes.sum(), total);
  EXPECT_EQ(sink.split_max_chunk_bytes.value(), largest);
  EXPECT_EQ(total, doc.size());
}

TEST(Tracer, WritesOneSpanLinePerScope) {
  std::string path = testing::TempDir() + "/nw_trace_test.jsonl";
  std::remove(path.c_str());
  {
    Tracer tracer(path);
    ASSERT_TRUE(tracer.ok());
    {
      TraceSpan span(&tracer, "doc", "corpus/0");
      span.Note("positions", 42);
    }
    TraceSpan dropped(nullptr, "doc", "x");  // null tracer: no-op
    dropped.Note("positions", 1);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::string s = line;
  EXPECT_NE(s.find("\"name\":\"doc\""), std::string::npos);
  EXPECT_NE(s.find("\"label\":\"corpus/0\""), std::string::npos);
  EXPECT_NE(s.find("\"positions\":42"), std::string::npos);
  EXPECT_NE(s.find("\"dur_us\":"), std::string::npos);
  EXPECT_EQ(std::fgets(line, sizeof(line), f), nullptr);  // exactly one
  std::fclose(f);
  std::remove(path.c_str());
}

/// The whole content of `path`.
std::string ReadAll(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Tracer, ChromeSpanKeepsEveryDigitOfLargeTimes) {
  // A span at ts >= 1 s lasting >= 100 µs on a multi-digit shard: the
  // numbers once overflowed a fixed 64-byte buffer and the tid rendered
  // as `"tid":,`.
  std::string path = testing::TempDir() + "/nw_trace_chrome_test.json";
  std::remove(path.c_str());
  {
    Tracer tracer(path, TraceFormat::kChrome);
    ASSERT_TRUE(tracer.ok());
    tracer.WriteSpan("doc", "corpus/7", 12345678901, 9876543210,
                     {{"shard", 17}, {"positions", 5}});
  }
  std::string s = ReadAll(path);
  EXPECT_NE(s.find("\"ts\":12345678901,\"dur\":9876543210,\"pid\":1,"
                   "\"tid\":17,\"args\":{\"label\":\"corpus/7\",\"shard\":17,"
                   "\"positions\":5}}"),
            std::string::npos)
      << s;
  std::remove(path.c_str());
}

TEST(Tracer, CounterLinesCarryTheSpanKeys) {
  // Every JSONL line has name/label/start_us/dur_us, counter samples
  // included: a counter sample is a zero-length span labelled by shard.
  std::string path = testing::TempDir() + "/nw_trace_counters_test.jsonl";
  std::remove(path.c_str());
  StatsSink sink;
  sink.engine_docs.Add(3);
  sink.engine_positions.Add(120);
  sink.frozen_hits.Add(100);
  sink.frozen_misses.Add(20);
  {
    Tracer tracer(path);
    ASSERT_TRUE(tracer.ok());
    tracer.WriteCounters(4, sink);
  }
  std::string s = ReadAll(path);
  EXPECT_EQ(s.find("{\"name\":\"counters\",\"label\":\"shard/4\","
                   "\"start_us\":"),
            0u)
      << s;
  EXPECT_NE(s.find(",\"dur_us\":0,\"shard\":4,\"docs\":3,\"positions\":120,"
                   "\"frozen_hits\":100,\"frozen_misses\":20}\n"),
            std::string::npos)
      << s;
  EXPECT_EQ(s.find("ts_us"), std::string::npos) << s;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nw
