// Tests for the JSON front end (src/json): the documented JSON →
// nested-word mapping, byte-identity of query results against the XML
// stack on equivalent documents — across the SoA, shared-bank, and
// frozen engine paths and under the sharded evaluator — plus the
// malformed-input guarantees (truncated or garbage JSON never fails, it
// tokenizes by the same "innermost closes" leniency the XML front end
// documents) under a seeded mutation fuzzer.
#include "json/json.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "stream/tree_gen.h"
#include "support/rng.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nw {
namespace {

/// Kind + element-name view of a nested word, comparable across
/// alphabets (each front end interns into its own).
std::vector<std::pair<Kind, std::string>> Named(const NestedWord& n,
                                                const Alphabet& sigma) {
  std::vector<std::pair<Kind, std::string>> out;
  for (size_t i = 0; i < n.size(); ++i) {
    out.emplace_back(n.kind(i), sigma.Name(n.symbol(i)));
  }
  return out;
}

TEST(Json, KeyedScalarIsALeafElement) {
  // `{"a":1}` streams exactly like `<a>1</a>`: call a, #text, return a.
  Alphabet sigma;
  NestedWord n = JsonToNestedWord("{\"a\":1}", &sigma);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n.kind(0), Kind::kCall);
  EXPECT_EQ(n.kind(1), Kind::kInternal);
  EXPECT_EQ(n.kind(2), Kind::kReturn);
  EXPECT_EQ(sigma.Name(n.symbol(0)), "a");
  EXPECT_EQ(sigma.Name(n.symbol(1)), "#text");
  EXPECT_EQ(n.symbol(0), n.symbol(2));
  EXPECT_TRUE(n.IsWellMatched());
  // String/bool/null scalars take the same shape as numbers.
  for (const char* doc :
       {"{\"a\":\"x\"}", "{\"a\":true}", "{\"a\":null}"}) {
    Alphabet s2;
    EXPECT_EQ(JsonToNestedWord(doc, &s2).size(), 3u) << doc;
  }
}

TEST(Json, TopLevelEnvelopeIsSilent) {
  // The anonymous document envelope carries no positions, so `{"a":1}`
  // and a bare `"a":1` tokenize identically.
  Alphabet s1, s2;
  EXPECT_EQ(Named(JsonToNestedWord("{\"a\":1}", &s1), s1),
            Named(JsonToNestedWord("\"a\":1", &s2), s2));
  // ... and the envelope works for a top-level array too.
  Alphabet s3;
  NestedWord n = JsonToNestedWord("[{\"a\":1}]", &s3);
  ASSERT_EQ(n.size(), 5u);  // call #obj, call a, #text, return a, return #obj
  EXPECT_EQ(s3.Name(n.symbol(0)), "#obj");
}

TEST(Json, AnonymousNestedContainersGetPseudoSymbols) {
  // Nested anonymous containers are real structure: #obj / #arr frames.
  Alphabet sigma;
  NestedWord n = JsonToNestedWord("{\"a\":[1,{\"x\":2}]}", &sigma);
  std::vector<std::pair<Kind, std::string>> expect = {
      {Kind::kCall, "a"},        {Kind::kInternal, "#text"},
      {Kind::kCall, "#obj"},     {Kind::kCall, "x"},
      {Kind::kInternal, "#text"}, {Kind::kReturn, "x"},
      {Kind::kReturn, "#obj"},   {Kind::kReturn, "a"},
  };
  EXPECT_EQ(Named(n, sigma), expect);
}

TEST(Json, EmptyContainersAndDanglingKeys) {
  Alphabet sigma;
  // `{"a":{}}` is an empty element: call a, return a.
  NestedWord n = JsonToNestedWord("{\"a\":{}}", &sigma);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_TRUE(n.IsWellMatched());
  // A key with no value has nothing to wrap; it vanishes.
  EXPECT_EQ(JsonToNestedWord("{\"a\":}", &sigma).size(), 0u);
}

TEST(Json, MalformedClosersFollowTheXmlLeniency) {
  Alphabet sigma;
  // A closer closes the innermost container regardless of brace kind.
  NestedWord cross = JsonToNestedWord("{\"a\":[1}", &sigma);
  ASSERT_EQ(cross.size(), 3u);
  EXPECT_EQ(cross.kind(2), Kind::kReturn);
  EXPECT_EQ(sigma.Name(cross.symbol(2)), "a");
  // Stray closers at the top are silent (the envelope's own is).
  EXPECT_EQ(JsonToNestedWord("}}]]", &sigma).size(), 0u);
  // A truncated document leaves pending calls, never an error.
  NestedWord trunc = JsonToNestedWord("{\"a\":{\"b\":[", &sigma);
  EXPECT_EQ(trunc.size(), 2u);
  EXPECT_EQ(trunc.kind(0), Kind::kCall);
  EXPECT_EQ(trunc.kind(1), Kind::kCall);
}

TEST(Json, StringEscapesAndUnterminatedStrings) {
  Alphabet sigma;
  // \" inside a key must not terminate it.
  NestedWord esc = JsonToNestedWord("{\"a\\\"b\":1}", &sigma);
  ASSERT_EQ(esc.size(), 3u);
  EXPECT_TRUE(esc.IsWellMatched());
  // An unterminated string value runs to end of input; the keyed-scalar
  // queue still closes its element.
  NestedWord open = JsonToNestedWord("{\"a\":\"unclosed", &sigma);
  ASSERT_EQ(open.size(), 3u);
  EXPECT_TRUE(open.IsWellMatched());
}

TEST(Json, RenderedForestsTokenizeIdenticallyInAllThreeFormats) {
  // The differential cornerstone: one random tree, three renderings, ONE
  // token stream. Everything downstream of the tokenizer is shared code,
  // so token identity here is what pins cross-format result identity.
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    std::vector<TreeNode> forest =
        RandomForest(&rng, {"a", "b", "c", "d"}, 40 + round * 13, 6);
    Alphabet sx, sj, st;
    NestedWord xml = XmlToNestedWord(RenderXml(forest), &sx);
    NestedWord json = JsonToNestedWord(RenderJson(forest), &sj);
    NestedWord trace = TraceToNestedWord(RenderTrace(forest), &st);
    EXPECT_EQ(Named(xml, sx), Named(json, sj)) << "round " << round;
    EXPECT_EQ(Named(xml, sx), Named(trace, st)) << "round " << round;
  }
}

// -- Cross-format engine differential -------------------------------------

std::vector<std::string> QueryTexts() {
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

struct Workload {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;

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

/// The same logical corpus in every format, from one seeded generator.
struct TriCorpus {
  std::vector<std::string> xml, json, trace;
};

TriCorpus MakeTriCorpus(size_t n, uint64_t seed) {
  Rng rng(seed);
  TriCorpus c;
  for (size_t i = 0; i < n; ++i) {
    std::vector<TreeNode> forest = RandomForest(
        &rng, {"a", "b", "c", "d", "e", "unlisted"}, 120 + (i % 5) * 90,
        3 + i % 8);
    c.xml.push_back(RenderXml(forest));
    c.json.push_back(RenderJson(forest));
    c.trace.push_back(RenderTrace(forest));
  }
  return c;
}

enum class Path { kSoa, kBank, kFrozen };

/// Streams `docs` through a fresh engine on the chosen execution path and
/// front end; returns per-document acceptance.
std::vector<std::vector<bool>> Eval(const Workload& w, Path path,
                                    InputFormat format,
                                    const std::vector<std::string>& docs) {
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  // Per-path scaffolding must outlive the engine's streaming below.
  std::unique_ptr<SharedBank> bank;
  std::unique_ptr<FrozenBank> frozen;
  std::unique_ptr<SharedBank> overflow;
  switch (path) {
    case Path::kSoa:
      for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
      break;
    case Path::kBank:
      bank = std::make_unique<SharedBank>(w.bank.shared->autos());
      engine.AddBank(bank.get());
      break;
    case Path::kFrozen:
      // Freeze unexplored: every step misses into the bank extending the
      // snapshot, the harshest coverage regime — results must still be
      // identical.
      bank = std::make_unique<SharedBank>(w.bank.shared->autos());
      frozen = std::make_unique<FrozenBank>(FrozenBank::Freeze(*bank));
      overflow = std::make_unique<SharedBank>(frozen.get());
      engine.AddFrozen(frozen.get(), overflow.get());
      break;
  }
  std::vector<std::vector<bool>> out;
  Alphabet alphabet = w.alphabet;
  for (const std::string& doc : docs) {
    out.push_back(engine.RunAll(doc, &alphabet, format));
  }
  return out;
}

TEST(JsonDifferential, AllEnginePathsMatchXmlByteForByte) {
  Workload w(QueryTexts());
  TriCorpus c = MakeTriCorpus(24, 99);
  for (Path path : {Path::kSoa, Path::kBank, Path::kFrozen}) {
    std::vector<std::vector<bool>> xml = Eval(w, path, InputFormat::kXml,
                                              c.xml);
    EXPECT_EQ(xml, Eval(w, path, InputFormat::kJson, c.json));
    EXPECT_EQ(xml, Eval(w, path, InputFormat::kTrace, c.trace));
  }
}

TEST(JsonDifferential, ShardedEvaluatorMatchesXmlAtEveryThreadCount) {
  Workload w(QueryTexts());
  TriCorpus c = MakeTriCorpus(24, 1234);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ShardedEvaluator xml_eval(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> xml =
        xml_eval.EvaluateCorpus(c.xml, w.alphabet, true);
    ShardedEvaluator json_eval(&frozen, w.num_symbols, w.other, threads,
                               InputFormat::kJson);
    std::vector<DocResult> json =
        json_eval.EvaluateCorpus(c.json, w.alphabet, true);
    ASSERT_EQ(xml.size(), json.size());
    for (size_t d = 0; d < xml.size(); ++d) {
      EXPECT_EQ(xml[d].accept, json[d].accept) << "doc " << d;
      EXPECT_EQ(xml[d].first_match, json[d].first_match) << "doc " << d;
      EXPECT_EQ(xml[d].positions, json[d].positions) << "doc " << d;
    }
  }
}

TEST(JsonDifferential, SplitTopLevelOnKeyedForestsPreservesResults) {
  // A keyed forest splits into per-root chunks whose concatenation is the
  // input, and each chunk re-tokenizes to exactly its root's tokens.
  Rng rng(5);
  std::vector<TreeNode> forest =
      RandomForest(&rng, {"a", "b", "c"}, 120, 5);
  std::string json = RenderJson(forest);
  std::vector<std::string> chunks = SplitTopLevel(json, InputFormat::kJson);
  std::string cat;
  for (const std::string& ch : chunks) cat += ch;
  EXPECT_EQ(cat, json);
  // The first chunk still carries the envelope opener, later ones are
  // bare `"name":...` members — all silent, so tokens compose.
  Alphabet whole_sigma, chunk_sigma;
  NestedWord whole = JsonToNestedWord(json, &whole_sigma);
  NestedWord glued;
  for (const std::string& ch : chunks) {
    NestedWord part = JsonToNestedWord(ch, &chunk_sigma);
    for (const TaggedSymbol& t : part.tagged()) glued.Push(t);
  }
  EXPECT_EQ(Named(whole, whole_sigma), Named(glued, chunk_sigma));
}

// -- Malformed-input fuzzing ----------------------------------------------

/// Seeded byte-level mutation: flips, deletions, insertions of structural
/// characters — truncations included (the suffix drop).
std::string Mutate(Rng* rng, std::string doc) {
  const char structural[] = {'{', '}', '[', ']', ',', ':', '"', '\\'};
  size_t edits = 1 + rng->Below(6);
  for (size_t e = 0; e < edits && !doc.empty(); ++e) {
    size_t at = rng->Below(doc.size());
    switch (rng->Below(4)) {
      case 0:
        doc[at] = structural[rng->Below(sizeof(structural))];
        break;
      case 1:
        doc.erase(at, 1 + rng->Below(3));
        break;
      case 2:
        doc.insert(at, 1, structural[rng->Below(sizeof(structural))]);
        break;
      case 3:
        doc.resize(at);  // truncation
        break;
    }
  }
  return doc;
}

TEST(JsonFuzz, MutatedDocumentsNeverFailAndAlwaysRecompose) {
  // The malformed-input contract, mirrored from the XML front end: any
  // byte string tokenizes (pending edges, never an error), the byte
  // cursor never stalls, SplitTopLevel chunks always concatenate back to
  // the input, and the full engine accepts the stream without fault.
  Workload w(QueryTexts());
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
  Rng rng(2024);
  Alphabet alphabet = w.alphabet;
  for (int round = 0; round < 300; ++round) {
    std::vector<TreeNode> forest =
        RandomForest(&rng, {"a", "b", "c"}, 30 + rng.Below(60), 5);
    std::string doc = Mutate(&rng, RenderJson(forest));
    // Tokenization terminates and covers every byte.
    Alphabet scratch;
    JsonTokenStream stream(doc, &scratch);
    TaggedSymbol t;
    size_t tokens = 0;
    while (stream.Next(&t)) ++tokens;
    EXPECT_EQ(stream.pos(), doc.size());
    EXPECT_LE(tokens, doc.size());
    std::vector<std::string> chunks = SplitTopLevel(doc, InputFormat::kJson);
    std::string cat;
    for (const std::string& ch : chunks) cat += ch;
    EXPECT_EQ(cat, doc);
    engine.RunAll(doc, &alphabet, InputFormat::kJson);
  }
}

TEST(JsonFuzz, PureGarbageTokenizes) {
  Alphabet sigma;
  Rng rng(77);
  for (int round = 0; round < 100; ++round) {
    std::string junk;
    for (size_t i = 0; i < 1 + rng.Below(64); ++i) {
      junk.push_back(static_cast<char>(rng.Below(256)));
    }
    JsonToNestedWord(junk, &sigma);  // must not fail
  }
}

// -- Stats plumbing -------------------------------------------------------

TEST(JsonStats, FlushOnceWithFormatLabel) {
  StatsSink sink;
  std::string doc = "{\"a\":{\"b\":1},\"c\":2}";
  {
    Alphabet sigma;
    JsonTokenStream stream(doc, &sigma);
    stream.set_stats(&sink);
    TaggedSymbol t;
    while (stream.Next(&t)) {
    }
    // End-of-input flushed; the destructor must NOT flush again.
  }
  EXPECT_EQ(sink.stream_docs_json.value(), 1u);
  EXPECT_EQ(sink.stream_docs_xml.value(), 0u);
  EXPECT_EQ(sink.stream_docs_trace.value(), 0u);
  EXPECT_EQ(sink.stream_bytes.value(), doc.size());
  EXPECT_EQ(sink.stream_calls.value(), 3u);   // a, b, c
  EXPECT_EQ(sink.stream_returns.value(), 3u);
  EXPECT_EQ(sink.stream_internals.value(), 2u);
  EXPECT_EQ(sink.stream_tokens.value(), 8u);
  EXPECT_EQ(sink.stream_depth_hwm.value(), 2u);
}

TEST(JsonStats, AbandonedStreamFlushesFromTheDestructor) {
  StatsSink sink;
  {
    Alphabet sigma;
    std::string doc = "{\"a\":1}";
    JsonTokenStream stream(doc, &sigma);
    stream.set_stats(&sink);
    TaggedSymbol t;
    ASSERT_TRUE(stream.Next(&t));  // partial consumption only
  }
  EXPECT_EQ(sink.stream_docs_json.value(), 1u);
}

TEST(JsonStats, FormatCountsRenderInTheRegistry) {
  StatsSink sink;
  sink.stream_docs_json.Inc();
  sink.stream_docs_xml.Add(2);
  StatsRegistry registry;
  registry.Register("main", &sink);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"format\":{\"xml\":2,\"json\":1,\"trace\":0}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace nw
