// Tests for the NWProf layer (src/obs/prof.h): per-query attribution must
// match a per-query NwaRunner oracle and be identical across all three
// engine execution paths (SoA, shared bank, frozen), its totals must stay
// pinned to the NWStats engine aggregates, escalations must be charged to
// the queries that caused them, the compile timeline must record ordered
// phases with monotone minimization deltas, and the chrome trace format
// must emit one well-formed event array.
#include "obs/prof.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/bank.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// A bank mixing the atom kinds, compiled through the full optimizer so
// the same automata back the SoA, bank, and frozen paths.
std::vector<std::string> QueryTexts() {
  return {"/a", "//b", "/a/b or //c", "a then c", "depth >= 3", "not //e"};
}

struct Workload {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;

  Workload() {
    for (const std::string& text : QueryTexts()) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    num_symbols = alphabet.size();
    bank = OptimizeBank(queries, num_symbols, OptOptions::All());
  }
};

/// Documents over the query names plus one unlisted name, so the
/// catch-all remap path is exercised like the CLI's generator does.
std::vector<std::string> MakeCorpus(size_t n, uint64_t seed) {
  Alphabet gen;
  for (const char* name : {"a", "b", "c", "e", "unlisted"}) gen.Intern(name);
  Rng rng(seed);
  std::vector<std::string> corpus;
  for (size_t i = 0; i < n; ++i) {
    corpus.push_back(
        RandomXmlDocument(&rng, gen, 120 + (i % 4) * 90, 3 + i % 6));
  }
  return corpus;
}

/// Per-query oracle counts, computed one query at a time with NwaRunner —
/// completely independent of the engine's batching and early-stop logic.
struct Oracle {
  std::vector<uint64_t> match_docs;
  std::vector<uint64_t> accept_positions;
  uint64_t positions = 0;
};

Oracle RunOracle(const Workload& w, const std::vector<std::string>& corpus) {
  const size_t k = w.bank.queries.size();
  Oracle o;
  o.match_docs.assign(k, 0);
  o.accept_positions.assign(k, 0);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) {
    NestedWord word = XmlToNestedWord(doc, &local);
    o.positions += word.size();
    for (size_t q = 0; q < k; ++q) {
      NwaRunner r(w.bank.queries[q].nwa);
      // The pre-input check: a query may accept the empty prefix.
      o.accept_positions[q] += r.Accepting();
      for (TaggedSymbol t : word.tagged()) {
        // The engine remaps post-compile symbols to the catch-all.
        if (t.symbol >= w.num_symbols) t.symbol = w.other;
        if (!r.Feed(t)) break;  // dead runs never accept again
        o.accept_positions[q] += r.Accepting();
      }
      o.match_docs[q] += r.Accepting();
    }
  }
  return o;
}

void ExpectMatchesOracle(const QueryAttribution& attr, const Oracle& o,
                         const std::vector<std::string>& corpus,
                         const char* path) {
  ASSERT_EQ(attr.num_queries(), o.match_docs.size());
  EXPECT_EQ(attr.docs.value(), corpus.size()) << path;
  EXPECT_EQ(attr.positions.value(), o.positions) << path;
  for (size_t q = 0; q < attr.num_queries(); ++q) {
    EXPECT_EQ(attr.query(q).match_docs.value(), o.match_docs[q])
        << path << " query " << q;
    EXPECT_EQ(attr.query(q).accept_positions.value(), o.accept_positions[q])
        << path << " query " << q;
  }
}

// ---------------------------------------------------------------------------
// Attribution differential: SoA vs bank vs frozen vs the NwaRunner oracle.
// ---------------------------------------------------------------------------

TEST(QueryAttribution, SoaPathMatchesPerQueryOracle) {
  Workload w;
  std::vector<std::string> corpus = MakeCorpus(10, 101);
  Oracle oracle = RunOracle(w, corpus);
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
  QueryAttribution attr(engine.num_queries());
  engine.set_attribution(&attr);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) engine.RunAll(doc, &local);
  ExpectMatchesOracle(attr, oracle, corpus, "soa");
}

TEST(QueryAttribution, BankPathMatchesPerQueryOracle) {
  Workload w;
  ASSERT_NE(w.bank.shared, nullptr);
  std::vector<std::string> corpus = MakeCorpus(10, 101);
  Oracle oracle = RunOracle(w, corpus);
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  engine.AddBank(w.bank.shared.get());
  QueryAttribution attr(engine.num_queries());
  engine.set_attribution(&attr);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) engine.RunAll(doc, &local);
  ExpectMatchesOracle(attr, oracle, corpus, "bank");
}

TEST(QueryAttribution, FrozenPathMatchesPerQueryOracle) {
  Workload w;
  ASSERT_NE(w.bank.shared, nullptr);
  std::vector<std::string> corpus = MakeCorpus(10, 101);
  Oracle oracle = RunOracle(w, corpus);
  // Train on a prefix only, so part of the corpus misses the snapshot
  // and the overflow path is attributed too.
  {
    QueryEngine trainer(w.num_symbols);
    trainer.set_other_symbol(w.other);
    trainer.AddBank(w.bank.shared.get());
    Alphabet local = w.alphabet;
    trainer.RunAll(corpus[0], &local);
  }
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  SharedBank overflow(&frozen);
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  engine.AddFrozen(&frozen, &overflow);
  QueryAttribution attr(engine.num_queries());
  engine.set_attribution(&attr);
  overflow.set_attribution(&attr);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) engine.RunAll(doc, &local);
  ExpectMatchesOracle(attr, oracle, corpus, "frozen");
}

TEST(QueryAttribution, TotalsArePinnedToTheEngineAggregates) {
  Workload w;
  std::vector<std::string> corpus = MakeCorpus(6, 7);
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
  StatsSink sink;
  engine.set_stats(&sink);
  QueryAttribution attr(engine.num_queries());
  engine.set_attribution(&attr);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) engine.RunAll(doc, &local);
  EXPECT_EQ(attr.docs.value(), sink.engine_docs.value());
  EXPECT_EQ(attr.positions.value(), sink.engine_positions.value());
  // match_docs is a share of the document count, never more.
  for (size_t q = 0; q < attr.num_queries(); ++q) {
    EXPECT_LE(attr.query(q).match_docs.value(), attr.docs.value());
  }
}

TEST(QueryAttribution, AttributionWithoutStatsDoesNotChangeResults) {
  Workload w;
  std::vector<std::string> corpus = MakeCorpus(6, 23);
  QueryEngine plain(w.num_symbols), attributed(w.num_symbols);
  QueryAttribution attr(w.bank.queries.size());
  for (QueryEngine* e : {&plain, &attributed}) {
    e->set_other_symbol(w.other);
    e->set_track_matches(true);
    for (const OptimizedQuery& q : w.bank.queries) e->Add(&q.nwa);
  }
  attributed.set_attribution(&attr);  // no sink: attribution alone
  Alphabet a_plain = w.alphabet, a_attr = w.alphabet;
  for (const std::string& doc : corpus) {
    EXPECT_EQ(plain.RunAll(doc, &a_plain), attributed.RunAll(doc, &a_attr));
    for (size_t q = 0; q < plain.num_queries(); ++q) {
      EXPECT_EQ(plain.first_match(q), attributed.first_match(q));
    }
  }
  EXPECT_EQ(attr.docs.value(), corpus.size());
}

TEST(QueryAttribution, EscalationsAreChargedToLiveQueries) {
  Workload w;
  ASSERT_NE(w.bank.shared, nullptr);
  // Freeze with zero training: every novel step is a snapshot miss, and
  // whatever stays out of frozen space escalates.
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  SharedBank overflow(&frozen);
  StatsSink sink;
  QueryAttribution attr(frozen.num_queries());
  overflow.set_stats(&sink);
  overflow.set_attribution(&attr);
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.AddFrozen(&frozen, &overflow);
  Alphabet local = w.alphabet;
  for (const std::string& doc : MakeCorpus(4, 99)) {
    engine.RunAll(doc, &local);
  }
  ASSERT_GT(sink.overflow_escalations.value(), 0u);
  uint64_t charged = 0, per_query_max = 0;
  for (size_t q = 0; q < attr.num_queries(); ++q) {
    charged += attr.query(q).escalations.value();
    per_query_max =
        std::max(per_query_max, attr.query(q).escalations.value());
  }
  // Every escalation charges each still-live component query: at least
  // one query per escalation (something kept the tuple alive), at most
  // K, and no single query more than the escalation count.
  EXPECT_GE(charged, sink.overflow_escalations.value());
  EXPECT_LE(charged, sink.overflow_escalations.value() * attr.num_queries());
  EXPECT_LE(per_query_max, sink.overflow_escalations.value());
}

TEST(QueryAttribution, MergeSumsCountersAndMaxesGauges) {
  QueryAttribution a(2), b(2);
  a.docs.Add(3);
  a.positions.Add(30);
  a.query(0).match_docs.Add(2);
  a.query(1).states_compiled.Set(7);
  b.docs.Add(4);
  b.positions.Add(40);
  b.query(0).match_docs.Add(5);
  b.query(1).states_compiled.Set(7);  // same bank, same sizes
  a.MergeFrom(b);
  EXPECT_EQ(a.docs.value(), 7u);
  EXPECT_EQ(a.positions.value(), 70u);
  EXPECT_EQ(a.query(0).match_docs.value(), 7u);
  EXPECT_EQ(a.query(1).states_compiled.value(), 7u);
}

// ---------------------------------------------------------------------------
// Sharded serving: per-shard tables merge to the single-stream truth.
// ---------------------------------------------------------------------------

TEST(ShardedEvaluator, ShardAttributionsSumToTheCorpusTruth) {
  Workload w;
  ASSERT_NE(w.bank.shared, nullptr);
  std::vector<std::string> corpus = MakeCorpus(12, 301);
  Oracle oracle = RunOracle(w, corpus);
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 16));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 3);
  StatsRegistry registry;
  evaluator.AttachStats(&registry);
  evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  ASSERT_EQ(registry.attributions().size(), 3u);
  QueryAttribution merged(frozen.num_queries());
  for (const QueryAttribution* shard : registry.attributions()) {
    merged.MergeFrom(*shard);
  }
  ExpectMatchesOracle(merged, oracle, corpus, "sharded");
}

// ---------------------------------------------------------------------------
// Compile timeline
// ---------------------------------------------------------------------------

TEST(CompileTimeline, PipelineRecordsOrderedMonotonePhases) {
  Alphabet alphabet;
  std::vector<Query> queries;
  for (const std::string& text : QueryTexts()) {
    queries.push_back(ParseQuery(text, &alphabet).Take());
  }
  alphabet.Intern("#text");
  alphabet.Intern("%other");
  CompileTimeline timeline;
  OptOptions opt = OptOptions::All();
  opt.timeline = &timeline;
  OptimizedBank bank = OptimizeBank(queries, alphabet.size(), opt);
  std::vector<std::string> names;
  for (const CompilePhase& p : timeline.phases()) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{"rewrite", "lower", "minimize",
                                             "bank_build"}));
  uint64_t sum = 0;
  for (const CompilePhase& p : timeline.phases()) sum += p.us;
  EXPECT_EQ(timeline.total_us(), sum);
  for (const CompilePhase& p : timeline.phases()) {
    if (p.name == "lower") {
      EXPECT_EQ(p.states_after, bank.states_compiled());
    }
    if (p.name == "minimize") {
      // Minimization never grows the bank.
      EXPECT_EQ(p.states_before, bank.states_compiled());
      EXPECT_EQ(p.states_after, bank.states_final());
      EXPECT_LE(p.states_after, p.states_before);
    }
  }
}

TEST(CompileTimeline, ExploreAndFreezeRecordTheProductSizes) {
  Workload w;
  ASSERT_NE(w.bank.shared, nullptr);
  CompileTimeline timeline;
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 16, &timeline));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared, &timeline);
  ASSERT_EQ(timeline.phases().size(), 2u);
  const CompilePhase& explore = timeline.phases()[0];
  const CompilePhase& freeze = timeline.phases()[1];
  EXPECT_EQ(explore.name, "explore");
  EXPECT_GE(explore.states_after, explore.states_before);
  EXPECT_EQ(explore.states_after, w.bank.shared->num_states());
  EXPECT_EQ(freeze.name, "freeze");
  EXPECT_EQ(freeze.states_after, frozen.num_states());
}

TEST(CompileTimeline, UnminimizedPipelineSkipsTheMinimizePhase) {
  Alphabet alphabet;
  std::vector<Query> queries{ParseQuery("//a", &alphabet).Take()};
  alphabet.Intern("#text");
  alphabet.Intern("%other");
  CompileTimeline timeline;
  OptOptions opt = OptOptions::None();
  opt.timeline = &timeline;
  OptimizeBank(queries, alphabet.size(), opt);
  std::vector<std::string> names;
  for (const CompilePhase& p : timeline.phases()) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{"lower"}));
}

// ---------------------------------------------------------------------------
// Chrome trace format
// ---------------------------------------------------------------------------

TEST(Tracer, ChromeFormatEmitsOneWellFormedEventArray) {
  std::string path = testing::TempDir() + "/nw_prof_chrome_trace.json";
  std::remove(path.c_str());
  {
    Tracer tracer(path, TraceFormat::kChrome);
    ASSERT_TRUE(tracer.ok());
    EXPECT_EQ(tracer.format(), TraceFormat::kChrome);
    {
      TraceSpan span(&tracer, "doc", "corpus/0");
      span.Note("shard", 2);
      span.Note("positions", 42);
    }
    StatsSink sink;
    sink.engine_docs.Add(1);
    sink.frozen_hits.Add(42);
    tracer.WriteCounters(2, sink);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  // One array wrapping comma-separated events.
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content.find_last_not_of(" \n"), content.rfind(']'));
  // The span became a complete event on the shard's track...
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(content.find("\"dur\":"), std::string::npos);
  EXPECT_NE(content.find("\"label\":\"corpus/0\""), std::string::npos);
  EXPECT_NE(content.find("\"positions\":42"), std::string::npos);
  // ...and the counter snapshot became a C event with the series.
  EXPECT_NE(content.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"shard/2\""), std::string::npos);
  EXPECT_NE(content.find("\"frozen_hits\":42"), std::string::npos);
  // Exactly two events → exactly one separating comma between '}' and '{'.
  size_t events = 0;
  for (size_t i = 0; (i = content.find("\"ph\":", i)) != std::string::npos;
       ++i) {
    ++events;
  }
  EXPECT_EQ(events, 2u);
}

TEST(Tracer, JsonlCountersLineCarriesTheShardSeries) {
  std::string path = testing::TempDir() + "/nw_prof_jsonl_counters.jsonl";
  std::remove(path.c_str());
  {
    Tracer tracer(path);  // default: jsonl
    ASSERT_TRUE(tracer.ok());
    EXPECT_EQ(tracer.format(), TraceFormat::kJsonl);
    StatsSink sink;
    sink.frozen_misses.Add(7);
    tracer.WriteCounters(1, sink);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::string s = line;
  EXPECT_NE(s.find("\"name\":\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(s.find("\"frozen_misses\":7"), std::string::npos);
  EXPECT_EQ(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Registry rendering of the NWProf sections
// ---------------------------------------------------------------------------

TEST(StatsRegistry, QueriesAndCompileSectionsRenderWithStableKeys) {
  QueryAttribution attr(2);
  attr.docs.Add(3);
  attr.positions.Add(120);
  attr.query(0).match_docs.Add(2);
  attr.query(0).accept_positions.Add(17);
  attr.query(0).states_compiled.Set(5);
  attr.query(0).states_final.Set(3);
  CompileTimeline timeline;
  timeline.Record("lower", 11, 0, 8);
  timeline.Record("minimize", 22, 8, 5);
  StatsRegistry reg;
  reg.RegisterAttribution(&attr);
  reg.SetQueryLabels({"//a", "//b"});
  reg.SetTimeline(&timeline);
  std::string json = reg.RenderJson();
  for (const char* key :
       {"\"queries\":{\"docs\":3", "\"per_query\":[", "\"id\":0",
        "\"text\":\"//a\"", "\"states_compiled\":5", "\"states_final\":3",
        "\"match_docs\":2", "\"accept_positions\":17", "\"escalations\":0",
        "\"compile\":{\"total_us\":33", "\"phases\":[",
        "\"name\":\"minimize\"", "\"states_before\":8",
        "\"states_after\":5"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("//a"), std::string::npos);
}

TEST(StatsRegistry, ProfSectionsRenderEmptyWhenUnattached) {
  StatsRegistry reg;
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"queries\":{\"docs\":0,\"positions\":0,"
                      "\"per_query\":[]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"compile\":{\"total_us\":0,\"phases\":[]}"),
            std::string::npos);
}

}  // namespace
}  // namespace nw
