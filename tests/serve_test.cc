// Tests for the parallel serving layer (src/serve): frozen snapshots of a
// pre-explored shared bank must answer exactly like the live bank, a bank
// that extends a snapshot must make correctness independent of training
// coverage, and sharded evaluation at any thread count must
// produce results identical to the single-stream engine — acceptance,
// first-match positions, and per-document position counts — over
// well-formed AND malformed documents.
#include "serve/sharded.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// A bank mixing every atom kind plus `not`-heavy members (the ones whose
// product states churn the most under streaming). Too rich a product to
// close exhaustively — exactly the case the corpus-trained freeze plus
// overflow fallback exists for.
std::vector<std::string> RichQueryTexts() {
  return {
      "/a",
      "//b",
      "/a/b or /a/c or //d",
      "a then c",
      "depth >= 3",
      "not //e",
      "not (/a and not //b)",
      "//a/*/b",
  };
}

// A small bank whose full product closes in milliseconds — the regime
// where exhaustive ExploreAll guarantees a miss-free snapshot.
std::vector<std::string> SmallQueryTexts() {
  return {"/a", "//b", "a then c", "depth >= 3"};
}

struct Workload {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;  ///< rewrite+min automata plus the shared product

  explicit Workload(const std::vector<std::string>& texts) {
    for (const std::string& text : texts) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    num_symbols = alphabet.size();
    bank = OptimizeBank(queries, num_symbols, OptOptions::All());
  }
};

/// Randomly corrupts a well-formed document: drops close tags and injects
/// stray ones, producing pending calls and pending returns.
std::string Corrupt(Rng* rng, const std::string& doc) {
  std::string out;
  size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] == '<' && i + 1 < doc.size() && doc[i + 1] == '/' &&
        rng->Chance(1, 5)) {
      while (i < doc.size() && doc[i] != '>') ++i;
      if (i < doc.size()) ++i;
      continue;
    }
    if (doc[i] == '<' && rng->Chance(1, 12)) out += "</stray>";
    out += doc[i++];
  }
  return out;
}

/// `n` random documents of varying size and depth; every third one is
/// corrupted (malformed-document shards are part of the contract).
std::vector<std::string> MakeCorpus(size_t n, uint64_t seed) {
  Alphabet gen;
  for (const char* name : {"a", "b", "c", "d", "e", "unlisted"}) {
    gen.Intern(name);
  }
  Rng rng(seed);
  std::vector<std::string> corpus;
  for (size_t i = 0; i < n; ++i) {
    std::string doc =
        RandomXmlDocument(&rng, gen, 150 + (i % 5) * 120, 3 + i % 9);
    if (i % 3 == 2) doc = Corrupt(&rng, doc);
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

/// Single-stream reference: the SoA engine (independent of the shared
/// bank, so freezing/exploring the product cannot contaminate it).
std::vector<DocResult> ReferenceResults(const Workload& w,
                                        const std::vector<std::string>& docs) {
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
  Alphabet local = w.alphabet;
  std::vector<DocResult> out(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    size_t before = engine.positions();
    out[i].accept = engine.RunAll(docs[i], &local);
    out[i].positions = engine.positions() - before;
    out[i].first_match.resize(engine.num_queries());
    for (size_t q = 0; q < engine.num_queries(); ++q) {
      out[i].first_match[q] = engine.first_match(q);
    }
  }
  return out;
}

void ExpectSameResults(const std::vector<DocResult>& want,
                       const std::vector<DocResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].accept, got[i].accept) << "doc " << i;
    EXPECT_EQ(want[i].first_match, got[i].first_match) << "doc " << i;
    EXPECT_EQ(want[i].positions, got[i].positions) << "doc " << i;
  }
}

TEST(FrozenBank, SnapshotAnswersLikeTheLiveBank) {
  Workload w(SmallQueryTexts());
  SharedBank* shared = w.bank.shared.get();
  ASSERT_TRUE(shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*shared);
  ASSERT_EQ(frozen.num_states(), shared->num_states());
  EXPECT_EQ(frozen.initial(), shared->initial());
  for (StateId q = 0; q < frozen.num_states(); ++q) {
    EXPECT_EQ(frozen.live(q), shared->live(q));
    for (size_t id = 0; id < frozen.num_queries(); ++id) {
      EXPECT_EQ(frozen.accepting(q, id), shared->accepting(q, id));
      EXPECT_EQ(frozen.component(q, id), shared->component(q, id));
    }
    for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
      EXPECT_EQ(frozen.Internal(q, a), shared->PeekInternal(q, a));
      EXPECT_EQ(frozen.CallLinear(q, a), shared->PeekCallLinear(q, a));
      EXPECT_EQ(frozen.CallHier(q, a), shared->PeekCallHier(q, a));
    }
    EXPECT_EQ(frozen.FindTuple(frozen.tuple(q)), q);
  }
  for (const SharedBank::MemoReturn& r : shared->MemoizedReturns()) {
    EXPECT_EQ(frozen.Return(r.from, r.hier, r.symbol), r.target);
  }
}

TEST(FrozenBank, ExhaustiveExplorationNeverMisses) {
  Workload w(SmallQueryTexts());
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 2);
  std::vector<std::string> corpus = MakeCorpus(24, 99);
  evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  EXPECT_EQ(evaluator.stats().frozen_misses, 0u);
  EXPECT_EQ(evaluator.stats().hit_rate(), 1.0);
  EXPECT_GT(evaluator.stats().frozen_hits, 0u);
}

TEST(FrozenBank, OverflowMapsBackIntoFrozenSpace) {
  Workload w(SmallQueryTexts());
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  // The snapshot is total, so every step of a bank extending it lands on
  // a tuple the snapshot has and must come back as the snapshot's own id
  // and answer, without the bank owning a single state.
  SharedBank overflow(&frozen);
  StatsSink sink;
  overflow.set_stats(&sink);
  EXPECT_EQ(overflow.initial(), frozen.initial());
  StateId q = frozen.initial();
  for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
    StateId via_overflow = overflow.StepInternal(q, a);
    EXPECT_LT(via_overflow, frozen.num_states());
    EXPECT_EQ(via_overflow, frozen.Internal(q, a));
    StateId h1, h2;
    StateId lin = overflow.StepCall(q, a, &h1);
    EXPECT_EQ(lin, frozen.CallLinear(q, a));
    h2 = frozen.CallHier(q, a);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(overflow.StepReturn(q, h2, a), frozen.Return(q, h2, a));
  }
  EXPECT_EQ(overflow.num_states(), frozen.num_states());
  EXPECT_EQ(sink.overflow_steps.value(), 3 * frozen.num_symbols());
  EXPECT_EQ(sink.overflow_mapbacks.value(), sink.overflow_steps.value());
  EXPECT_EQ(sink.bank_memo_misses.value(), 0u);  // bank.* stays untouched
}

/// Streams `corpus` through one engine over `frozen` extended by `bank`,
/// with one sink on both; returns that sink's counts.
void StreamExtended(const Workload& w, const FrozenBank& frozen,
                    SharedBank* bank, const std::vector<std::string>& corpus,
                    StatsSink* sink) {
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.AddFrozen(&frozen, bank);
  engine.set_stats(sink);
  bank->set_stats(sink);
  Alphabet local = w.alphabet;
  for (const std::string& doc : corpus) engine.RunAll(doc, &local);
}

// The overflow accounting over a partly trained snapshot: every snapshot
// miss is one bank step, every bank step ends on a snapshot state or on
// one the bank owns, and the bank never owns a tuple the snapshot has.
TEST(FrozenBank, ExtendingBankAccountsForEveryMiss) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(24, 31);
  StatsSink trainer_sink;
  {
    QueryEngine trainer(w.num_symbols);
    trainer.set_other_symbol(w.other);
    trainer.AddBank(w.bank.shared.get());
    trainer.set_stats(&trainer_sink);
    w.bank.shared->set_stats(&trainer_sink);
    Alphabet local = w.alphabet;
    for (size_t i = 0; i < 3; ++i) trainer.RunAll(corpus[i], &local);
    w.bank.shared->set_stats(nullptr);
  }
  // Without a snapshot the bank counts memo traffic and nothing frozen.
  EXPECT_EQ(trainer_sink.engine_docs_bank.value(), 3u);
  EXPECT_GT(trainer_sink.bank_memo_misses.value(), 0u);
  EXPECT_EQ(trainer_sink.frozen_hits.value() +
                trainer_sink.frozen_misses.value() +
                trainer_sink.overflow_steps.value(),
            0u);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  SharedBank bank(&frozen);
  StatsSink sink;
  StreamExtended(w, frozen, &bank, corpus, &sink);
  EXPECT_EQ(sink.engine_docs_frozen.value(), corpus.size());
  ASSERT_GT(sink.frozen_hits.value(), 0u);
  ASSERT_GT(sink.frozen_misses.value(), 0u);
  EXPECT_EQ(sink.overflow_steps.value(), sink.frozen_misses.value());
  EXPECT_EQ(sink.overflow_mapbacks.value() +
                sink.overflow_escalations.value(),
            sink.overflow_steps.value());
  EXPECT_GT(sink.overflow_mapbacks.value(), 0u);
  EXPECT_GT(sink.overflow_escalations.value(), 0u);
  EXPECT_EQ(sink.bank_states.value(), 0u);  // bank.* stays untouched
  ASSERT_GT(bank.num_states(), frozen.num_states());
  for (StateId q = bank.first_own_state(); q < bank.num_states(); ++q) {
    EXPECT_EQ(frozen.FindTuple(bank.tuple(q)), kNoState) << "state " << q;
  }
}

// Refreshing by harvesting a bank's own states is not supported: a bank
// that extends a snapshot can neither be explored nor frozen.
TEST(FrozenBankDeathTest, ExtendingBankRefusesExploreAndFreeze) {
  Workload w(SmallQueryTexts());
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  SharedBank bank(&frozen);
  EXPECT_DEATH(bank.ExploreAll(1u << 10), "extends a snapshot");
  EXPECT_DEATH(FrozenBank::Freeze(bank), "extends a snapshot");
}

TEST(FrozenBank, ExhaustiveSnapshotLeavesTheBankEmpty) {
  Workload w(SmallQueryTexts());
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  SharedBank bank(&frozen);
  StatsSink sink;
  StreamExtended(w, frozen, &bank, MakeCorpus(24, 99), &sink);
  EXPECT_GT(sink.frozen_hits.value(), 0u);
  EXPECT_EQ(sink.frozen_misses.value(), 0u);
  EXPECT_EQ(sink.overflow_steps.value(), 0u);
  EXPECT_EQ(bank.num_states(), frozen.num_states());
}

// The tentpole differential: sharded evaluation at N ∈ {1, 2, 8} threads
// must equal the single-stream engine bit for bit.
TEST(ShardedEvaluator, MatchesSingleStreamAtEveryThreadCount) {
  Workload w(SmallQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(64, 7);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  for (size_t threads : {1u, 2u, 8u}) {
    ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> got =
        evaluator.EvaluateCorpus(corpus, w.alphabet, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResults(want, got);
  }
}

// Freeze on a training corpus that misses most of what evaluation sees:
// the overflow fallback must keep results identical while the stats
// report real misses.
TEST(ShardedEvaluator, OverflowFallbackKeepsResultsIdentical) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(48, 21);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  // Train on two tiny shallow documents only.
  QueryEngine trainer(w.num_symbols);
  trainer.set_other_symbol(w.other);
  trainer.AddBank(w.bank.shared.get());
  Alphabet train_alpha = w.alphabet;
  for (const std::string& doc : {std::string("<a><b>x</b></a>"),
                                 std::string("<c/>")}) {
    trainer.RunAll(doc, &train_alpha);
  }
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  for (size_t threads : {1u, 2u, 8u}) {
    ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> got =
        evaluator.EvaluateCorpus(corpus, w.alphabet, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResults(want, got);
    EXPECT_GT(evaluator.stats().frozen_misses, 0u);
    EXPECT_LT(evaluator.stats().hit_rate(), 1.0);
  }
}

// The extreme coverage gap: freeze a bank nothing was ever streamed
// through — only the initial state is frozen, every step overflows.
TEST(ShardedEvaluator, UntrainedFreezeStillCorrect) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(16, 5);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ASSERT_EQ(frozen.num_states(), 1u);
  for (size_t threads : {1u, 2u, 8u}) {
    ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> got =
        evaluator.EvaluateCorpus(corpus, w.alphabet, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResults(want, got);
    EXPECT_EQ(evaluator.stats().frozen_hits, 0u);
  }
}

TEST(ShardedEvaluator, EmptyCorpus) {
  Workload w(SmallQueryTexts());
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 4);
  std::vector<DocResult> got =
      evaluator.EvaluateCorpus({}, w.alphabet, true);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(evaluator.stats().documents, 0u);
  EXPECT_EQ(evaluator.stats().hit_rate(), 1.0);
}

TEST(SplitTopLevel, ChunksConcatenateToTheInput) {
  const std::string doc =
      "<!-- preamble --><a><b>x</b></a>stray text<c/><d><e/>"
      "<!-- <f> inside comment --></d></weird><g><unclosed>";
  std::vector<std::string> chunks = SplitTopLevel(doc);
  std::string joined;
  for (const std::string& c : chunks) joined += c;
  EXPECT_EQ(joined, doc);
  // <a>…</a> (with the preamble comment), <c/> (with the stray text),
  // <d>…</d>, the stray </weird>, and the trailing unclosed spill.
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[0], "<!-- preamble --><a><b>x</b></a>");
  EXPECT_EQ(chunks[1], "stray text<c/>");
  EXPECT_EQ(chunks[2], "<d><e/><!-- <f> inside comment --></d>");
  EXPECT_EQ(chunks[3], "</weird>");
  EXPECT_EQ(chunks[4], "<g><unclosed>");
}

TEST(SplitTopLevel, RecordStreamShardsLikeACorpus) {
  // One huge record-stream document splits into records; evaluating the
  // records as a sharded corpus equals evaluating each alone.
  std::string doc;
  for (int i = 0; i < 12; ++i) {
    doc += i % 2 == 0 ? "<a><b>x</b></a>" : "<c><d/></c>";
  }
  std::vector<std::string> records = SplitTopLevel(doc);
  ASSERT_EQ(records.size(), 12u);
  Workload w(SmallQueryTexts());
  std::vector<DocResult> want = ReferenceResults(w, records);
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 8);
  ExpectSameResults(want,
                    evaluator.EvaluateCorpus(records, w.alphabet, true));
}

TEST(SplitTopLevel, UnstructuredInputIsOneChunk) {
  EXPECT_EQ(SplitTopLevel("just text, no tags"),
            std::vector<std::string>{"just text, no tags"});
  EXPECT_EQ(SplitTopLevel(""), std::vector<std::string>{""});
}

TEST(ShardedEvaluator, AttachedRegistryAccountsForTheWholeCorpus) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(24, 99);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 4);
  StatsRegistry registry;
  evaluator.AttachStats(&registry);
  std::vector<DocResult> got =
      evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  ExpectSameResults(want, got);  // instrumentation never changes results
  // Per-shard tallies must account for every document and byte exactly.
  StatsSink agg;
  registry.Aggregate(&agg);
  size_t total_bytes = 0;
  for (const std::string& doc : corpus) total_bytes += doc.size();
  EXPECT_EQ(agg.shard_docs.value(), corpus.size());
  EXPECT_EQ(agg.shard_bytes.value(), total_bytes);
  EXPECT_GT(agg.shard_positions.value(), 0u);
  // The registry's frozen counters agree with the legacy ServeStats.
  ServeStats stats = evaluator.stats();
  EXPECT_EQ(agg.frozen_hits.value(), stats.frozen_hits);
  EXPECT_EQ(agg.frozen_misses.value(), stats.frozen_misses);
  // Utilization of every shard renders as a number in [0, 1].
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"label\":\"shard/0\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"shard/3\""), std::string::npos);
  // A second corpus pass keeps accumulating into the same sinks.
  evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  StatsSink agg2;
  registry.Aggregate(&agg2);
  EXPECT_EQ(agg2.shard_docs.value(), 2 * corpus.size());
  EXPECT_EQ(agg2.frozen_hits.value() + agg2.frozen_misses.value(),
            2 * (stats.frozen_hits + stats.frozen_misses));
}

}  // namespace
}  // namespace nw
