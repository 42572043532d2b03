// Tests for the NWDaemon subsystem (src/daemon): the wire protocol must
// round-trip every escape and reject every malformed request whole; the
// resident core must stay byte-identical to a single-stream oracle at
// any thread count, across online admissions, retirements, and epoch
// refreshes (the RCU swap must never mix epochs within a document); the
// frozen hit rate must climb after a refresh; and SIGTERM must drain
// gracefully — the death-free half of nwqueryd's exit-0 contract.
#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include "daemon/protocol.h"
#include "daemon/server.h"
#include "obs/pulse.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "reference_protocol.h"
#include "stream/tree_gen.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(DaemonProtocol, ParsesEveryOp) {
  DaemonRequest r = ParseDaemonRequest(
                        R"({"op":"SUBMIT","doc":"<a/>","format":"trace",)"
                        R"("label":"d1"})")
                        .Take();
  EXPECT_EQ(r.op, DaemonOp::kSubmit);
  EXPECT_EQ(r.doc, "<a/>");
  EXPECT_TRUE(r.has_format);
  EXPECT_EQ(r.format, InputFormat::kTrace);
  EXPECT_EQ(r.label, "d1");

  r = ParseDaemonRequest(R"({"op":"SUBMIT","doc":"x"})").Take();
  EXPECT_FALSE(r.has_format);
  EXPECT_TRUE(r.label.empty());

  r = ParseDaemonRequest(R"({"op":"ADMIT","query":"//b"})").Take();
  EXPECT_EQ(r.op, DaemonOp::kAdmit);
  EXPECT_EQ(r.query, "//b");

  r = ParseDaemonRequest(R"({"op":"RETIRE","qid":42})").Take();
  EXPECT_EQ(r.op, DaemonOp::kRetire);
  EXPECT_TRUE(r.has_qid);
  EXPECT_EQ(r.qid, 42u);

  EXPECT_EQ(ParseDaemonRequest(R"({"op":"STATS"})").Take().op,
            DaemonOp::kStats);
  EXPECT_EQ(ParseDaemonRequest(R"( { "op" : "SHUTDOWN" } )").Take().op,
            DaemonOp::kShutdown);
}

TEST(DaemonProtocol, DecodesStringEscapes) {
  // Python json.dumps ensure_ascii output must round-trip byte-exactly:
  // standard escapes, \uXXXX, and an astral-plane surrogate pair.
  DaemonRequest r =
      ParseDaemonRequest(
          R"({"op":"SUBMIT","doc":"<a>\"\\\/\b\f\n\r\t\u00e9A"})")
          .Take();
  EXPECT_EQ(r.doc, std::string("<a>\"\\/\b\f\n\r\t\xc3\xa9") + "A");
  // Surrogate pair: U+1F600 escaped the way json.dumps emits it.
  r = ParseDaemonRequest(R"({"op":"SUBMIT","doc":"\ud83d\ude00"})").Take();
  EXPECT_EQ(r.doc, "\xf0\x9f\x98\x80");
  // Raw UTF-8 bytes pass through untouched.
  r = ParseDaemonRequest("{\"op\":\"SUBMIT\",\"doc\":\"\xf0\x9f\x98\x80\"}")
          .Take();
  EXPECT_EQ(r.doc, "\xf0\x9f\x98\x80");
}

TEST(DaemonProtocol, RejectsMalformedRequestsWhole) {
  const char* bad[] = {
      "",                                      // empty line
      "SUBMIT doc",                            // not JSON
      R"(["op","STATS"])",                     // not an object
      R"({"op":"FROB"})",                      // unknown op
      R"({"op":"STATS","extra":1})",           // unknown key
      R"({"op":"SUBMIT"})",                    // SUBMIT without doc
      R"({"op":"ADMIT"})",                     // ADMIT without query
      R"({"op":"RETIRE"})",                    // RETIRE without qid
      R"({"op":"RETIRE","qid":-1})",           // negative qid
      R"({"op":"RETIRE","qid":"3"})",          // qid as string
      R"({"op":"SUBMIT","doc":"x","format":"yaml"})",  // bad enum value
      R"({"op":"STATS"} trailing)",            // trailing garbage
      R"({"op":"SUBMIT","doc":"unterminated)",  // unterminated string
      R"({"op":"SUBMIT","doc":"\ud83d"})",     // lone high surrogate
  };
  for (const char* line : bad) {
    Result<DaemonRequest> r = ParseDaemonRequest(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
  }
  // Error messages must be actionable, same contract as the CLI flags.
  Result<DaemonRequest> r =
      ParseDaemonRequest(R"({"op":"SUBMIT","doc":"x","format":"yaml"})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("xml, json, or trace"),
            std::string::npos)
      << r.status().message();
}

// ---------------------------------------------------------------------------
// Decoder differential: the run-decoding parser against the byte-at-a-time
// oracle in tests/reference_protocol.h
// ---------------------------------------------------------------------------

/// `s` as Python's json.dumps writes it (ensure_ascii): short escapes
/// for '"', '\\' and five controls, \u00XX for the other controls, and
/// \uXXXX (a surrogate pair past the BMP) for every non-ASCII code
/// point. `s` must be valid UTF-8.
std::string PyJsonDumps(const std::string& s) {
  std::string out = "\"";
  auto hex4 = [&](uint32_t u) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", u);
    out += buf;
  };
  for (size_t i = 0; i < s.size();) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (c < 0x20) {
            hex4(c);
          } else {
            out.push_back(static_cast<char>(c));
          }
      }
      ++i;
      continue;
    }
    size_t len = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : 2;
    uint32_t cp = c & (0x3F >> (len - 1));
    for (size_t k = 1; k < len; ++k) {
      cp = (cp << 6) | (static_cast<unsigned char>(s[i + k]) & 0x3F);
    }
    i += len;
    if (cp >= 0x10000) {
      cp -= 0x10000;
      hex4(0xD800 + (cp >> 10));
      hex4(0xDC00 + (cp & 0x3FF));
    } else {
      hex4(cp);
    }
  }
  out.push_back('"');
  return out;
}

/// "" when the two parsers agree on `line` (the same request, or the
/// same error message), else a description of the first difference.
std::string DecoderDiff(const std::string& line) {
  Result<DaemonRequest> got = ParseDaemonRequest(line);
  Result<DaemonRequest> want = reference::ParseDaemonRequest(line);
  if (got.ok() != want.ok()) {
    return got.ok() ? "accepted; oracle: " + want.status().message()
                    : "refused: " + got.status().message();
  }
  if (!got.ok()) {
    return got.status().message() == want.status().message()
               ? ""
               : "error '" + got.status().message() + "' vs oracle '" +
                     want.status().message() + "'";
  }
  if (got->doc != want->doc) return "doc differs";
  if (got->op != want->op || got->format != want->format ||
      got->has_format != want->has_format || got->label != want->label ||
      got->query != want->query || got->qid != want->qid ||
      got->has_qid != want->has_qid) {
    return "fields differ";
  }
  return "";
}

TEST(DaemonProtocol, RunDecoderMatchesByteOracleOnSubmitLines) {
  // NWBench-style lines: random trees rendered in each front end's
  // syntax, quoted by json.dumps, some with non-ASCII text and controls.
  const std::vector<std::string> names = {"a", "b", "c", "item", "x-y"};
  const char* kFormats[] = {"xml", "json", "trace"};
  Rng rng(2007);
  size_t lines = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<TreeNode> forest =
        RandomForest(&rng, names, 20 + static_cast<size_t>(i) * 40, 6);
    const std::string rendered[] = {RenderXml(forest), RenderJson(forest),
                                    RenderTrace(forest)};
    for (int f = 0; f < 3; ++f) {
      std::string doc = rendered[f];
      if (i % 4 == 1) doc += "caf\xc3\xa9 \xe2\x82\xac\t\"q\"\n";
      if (i % 4 == 3) doc.insert(doc.size() / 2, "\xf0\x9f\x98\x80\\");
      std::string line = "{\"op\":\"SUBMIT\",\"doc\":" + PyJsonDumps(doc) +
                         ",\"format\":\"" + kFormats[f] +
                         "\",\"label\":\"d" + std::to_string(i) + "\"}";
      ASSERT_EQ(DecoderDiff(line), "") << line;
      EXPECT_EQ(ParseDaemonRequest(line)->doc, doc);
      ++lines;
    }
  }
  EXPECT_EQ(lines, 180u);
}

TEST(DaemonProtocol, RunDecoderMatchesByteOracleUnderMutation) {
  // Every mutation lands at every offset of a 40-byte run, so each byte
  // of the decoder's 8-byte words (offset mod 8) meets each of them.
  const std::string base = "<feed><entry>plain text run</entry></feed>";
  const std::vector<std::string> mutations = {
      "\"", "\\", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t",
      "\\u0041", "\\u00e9", "\\u20AC", "\\ud83d\\ude00",  // paired surrogates
      "\\ud83d", "\\ude00", "\\ud83dx", "\\ud83d\\u0041",  // unpaired
      "\\uZZZZ", "\\u12", "\\q", std::string(1, '\0'), "\x80", "\xff",
      "\xc3\xa9", "\\\\\"", "\"\\"};
  const std::string head = "{\"op\":\"SUBMIT\",\"doc\":\"";
  const std::string tail = "\",\"label\":\"m\"}";
  size_t checked = 0;
  for (size_t at = 0; at <= base.size(); ++at) {
    for (const std::string& m : mutations) {
      std::string doc = base;
      doc.insert(at, m);
      const std::string line = head + doc + tail;
      ASSERT_EQ(DecoderDiff(line), "")
          << "mutation '" << m << "' at doc offset " << at;
      // The line cut inside or right after the mutation: escapes and
      // strings truncated at the line end.
      for (size_t cut = 0; cut <= m.size(); ++cut) {
        const std::string truncated = line.substr(0, head.size() + at + cut);
        ASSERT_EQ(DecoderDiff(truncated), "")
            << "mutation '" << m << "' at " << at << " cut at " << cut;
      }
      checked += 2 + m.size();
    }
  }
  // Random byte insertions anywhere in the line, keys and framing too.
  const std::string pool = std::string("\"\\u0/bfnrt{}:,dx9 ") + '\0' + "\x80";
  Rng rng(20070611);
  const std::string line = head + base + tail;
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = line;
    for (int k = 0, n = 1 + static_cast<int>(rng.Below(4)); k < n; ++k) {
      mutated.insert(rng.Below(mutated.size() + 1), 1,
                     pool[rng.Below(pool.size())]);
    }
    ASSERT_EQ(DecoderDiff(mutated), "") << mutated;
    ++checked;
  }
  EXPECT_GT(checked, 10000u);
}

// ---------------------------------------------------------------------------
// Oracle: an independent single-stream compilation of an epoch's query
// texts. An epoch is a function of those texts alone, so its alphabet
// must be, name by name, the one ParseBank lays out over them, and its
// catch-all that alphabet's %other; the oracle checks both, then
// compares accept vectors, first-match positions, and position counts
// (unknown names map to the %other catch-all on both sides).
// ---------------------------------------------------------------------------

/// "" when `epoch`'s symbol space is ParseBank's over its query texts,
/// else a description of the first difference.
std::string LayoutDiff(const DaemonEpoch& epoch) {
  Result<ParsedBank> want = ParseBank(epoch.query_texts);
  if (!want.ok()) return "query texts do not re-parse";
  if (epoch.alphabet.size() != want->alphabet.size() ||
      epoch.num_symbols != want->alphabet.size()) {
    return "alphabet holds " + std::to_string(epoch.alphabet.size()) +
           " symbols, ParseBank " + std::to_string(want->alphabet.size());
  }
  for (Symbol s = 0; s < want->alphabet.size(); ++s) {
    if (epoch.alphabet.Name(s) != want->alphabet.Name(s)) {
      return "symbol " + std::to_string(s) + " is '" +
             epoch.alphabet.Name(s) + "', ParseBank's '" +
             want->alphabet.Name(s) + "'";
    }
  }
  if (epoch.other != want->alphabet.Find("%other")) {
    return "the catch-all is not %other";
  }
  return "";
}

struct Oracle {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;
  std::unique_ptr<QueryEngine> engine;
  std::string layout_diff;

  explicit Oracle(const DaemonEpoch& epoch) : layout_diff(LayoutDiff(epoch)) {
    for (const std::string& text : epoch.query_texts) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    num_symbols = alphabet.size();
    bank = OptimizeBank(queries, num_symbols, OptOptions::All());
    engine = std::make_unique<QueryEngine>(num_symbols);
    engine->set_other_symbol(other);
    engine->set_track_matches(true);
    for (const OptimizedQuery& q : bank.queries) engine->Add(&q.nwa);
  }

  DocResult Eval(const std::string& doc, InputFormat format) {
    Alphabet local = alphabet;
    DocResult out;
    size_t before = engine->positions();
    out.accept = engine->RunAll(doc, &local, format);
    out.positions = engine->positions() - before;
    out.first_match.resize(engine->num_queries());
    for (size_t q = 0; q < engine->num_queries(); ++q) {
      out.first_match[q] = engine->first_match(q);
    }
    return out;
  }
};

/// Per-thread oracle cache keyed by epoch id — each epoch's query list
/// is immutable, so one compilation answers for its whole lifetime.
class OracleCache {
 public:
  Oracle* For(const DaemonEpoch& epoch) {
    auto it = cache_.find(epoch.id);
    if (it == cache_.end()) {
      it = cache_.emplace(epoch.id, std::make_unique<Oracle>(epoch)).first;
    }
    return it->second.get();
  }

 private:
  std::map<uint64_t, std::unique_ptr<Oracle>> cache_;
};

/// One comparison; returns a description of the first mismatch or "".
std::string CompareOutcome(const SubmitOutcome& outcome, Oracle* oracle,
                           const std::string& doc, InputFormat format) {
  if (!oracle->layout_diff.empty()) return oracle->layout_diff;
  DocResult want = oracle->Eval(doc, format);
  const DocResult& got = outcome.result;
  if (want.accept != got.accept) return "accept vector mismatch";
  if (want.first_match != got.first_match) return "first_match mismatch";
  if (want.positions != got.positions) return "position count mismatch";
  if (got.accept.size() != outcome.epoch->query_texts.size()) {
    return "result width != epoch query count";
  }
  return "";
}

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

struct TaggedDoc {
  std::string text;
  InputFormat format;
};

/// Mixed-format corpus: random (sometimes corrupted) XML plus fixed JSON
/// and Figure-1 trace documents, so every front end crosses the daemon.
std::vector<TaggedDoc> MakeCorpus(size_t n, uint64_t seed) {
  Alphabet gen;
  for (const char* name : {"a", "b", "c", "d", "e", "unlisted"}) {
    gen.Intern(name);
  }
  Rng rng(seed);
  std::vector<TaggedDoc> corpus;
  for (size_t i = 0; i < n; ++i) {
    std::string doc =
        RandomXmlDocument(&rng, gen, 120 + (i % 5) * 90, 3 + i % 8);
    if (i % 3 == 2) doc = Corrupt(&rng, doc);
    corpus.push_back({std::move(doc), InputFormat::kXml});
  }
  corpus.push_back({R"({"a":{"b":[1,2,{"c":"x"}]},"d":null})",
                    InputFormat::kJson});
  corpus.push_back({R"([{"b":true},{"e":{"b":0}}])", InputFormat::kJson});
  corpus.push_back({"<a <b c b> <d> a> <e stray>", InputFormat::kTrace});
  corpus.push_back({"<a <b crash", InputFormat::kTrace});
  return corpus;
}

std::vector<std::string> InitialQueries() {
  return {"//b", "/a/b or /a/c or //d", "not //e", "depth >= 3"};
}

// ---------------------------------------------------------------------------
// Differential: daemon vs oracle, across admission / retirement / refresh
// ---------------------------------------------------------------------------

class DaemonDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(DaemonDifferential, MatchesOracleAcrossAdmissionAndRefresh) {
  DaemonOptions options;
  options.threads = GetParam();
  // A small exploration cap keeps multi-query product refreshes cheap —
  // the shards' banks cover whatever the snapshot lacks, so correctness
  // (the thing under test) is cap-independent.
  options.refresh_cap = 512;
  DaemonCore core(InitialQueries(), options);
  ASSERT_TRUE(core.ok()) << core.init_error().message();
  core.Start();

  std::vector<TaggedDoc> corpus = MakeCorpus(18, 1234 + GetParam());
  OracleCache oracles;
  auto run_corpus = [&]() {
    for (const TaggedDoc& doc : corpus) {
      Result<SubmitOutcome> r = core.Submit(doc.text, doc.format);
      ASSERT_TRUE(r.ok()) << r.status().message();
      SubmitOutcome outcome = r.Take();
      std::string diff = CompareOutcome(outcome, oracles.For(*outcome.epoch),
                                        doc.text, doc.format);
      ASSERT_EQ(diff, "") << "epoch " << outcome.epoch->id;
    }
  };

  // Warm startup epoch.
  EXPECT_TRUE(core.current_epoch()->refreshed);
  run_corpus();

  // Online admission: served cold immediately, identical results.
  uint64_t qid = core.Admit("//a/*/b").Take();
  run_corpus();

  // After the background re-freeze the same documents still match, and
  // the admitted query answers in the refreshed epoch.
  core.AwaitRefresh();
  EXPECT_TRUE(core.current_epoch()->refreshed);
  run_corpus();

  // Retirement shrinks the bank online; results stay oracle-identical.
  ASSERT_TRUE(core.Retire(qid).ok());
  run_corpus();
  core.AwaitRefresh();
  run_corpus();

  // Admission of a bad query must not disturb serving.
  EXPECT_FALSE(core.Admit("//(").ok());
  run_corpus();

  core.DrainAndStop();
}

INSTANTIATE_TEST_SUITE_P(Threads, DaemonDifferential,
                         ::testing::Values(size_t{1}, size_t{8}));

TEST(DaemonCoreTest, RetireGuards) {
  DaemonOptions options;
  DaemonCore core({"//b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();
  EXPECT_FALSE(core.Retire(99).ok());   // unknown qid
  EXPECT_FALSE(core.Retire(0).ok());    // last remaining query
  uint64_t qid = core.Admit("//c").Take();
  EXPECT_TRUE(core.Retire(qid).ok());
  EXPECT_FALSE(core.Retire(qid).ok());  // idempotence: already gone
  core.DrainAndStop();
}

TEST(DaemonCoreTest, InitErrorOnBadInitialQuery) {
  DaemonOptions options;
  DaemonCore core({"//b", "//("}, options);
  EXPECT_FALSE(core.ok());
  EXPECT_FALSE(core.init_error().message().empty());
}

TEST(DaemonCoreTest, InitErrorQuotesTheFailingQuery) {
  DaemonOptions options;
  DaemonCore core({"//b", "/a then", "//("}, options);
  ASSERT_FALSE(core.ok());
  EXPECT_NE(core.init_error().message().find("'/a then'"), std::string::npos)
      << core.init_error().message();
}

TEST(DaemonCoreTest, RetiringAnInitialQueryFreesItsNames) {
  DaemonOptions options;
  DaemonCore core({"//b", "//zz/yy"}, options);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core.current_epoch()->num_symbols, 5u);  // b zz yy #text %other

  // Once //zz/yy is gone, zz and yy step as %other; //b still latches on
  // <b>, the fifth position.
  const std::string doc = "<zz><yy></yy></zz><b></b>";
  auto b_match = [&] {
    SubmitOutcome outcome = core.Submit(doc, InputFormat::kXml).Take();
    EXPECT_TRUE(outcome.result.accept[0]);
    return outcome.result.first_match[0];
  };
  EXPECT_EQ(b_match(), 5);
  ASSERT_TRUE(core.Retire(1).ok());
  // No refresher runs before Start(), so the cold epoch serves here.
  std::shared_ptr<const DaemonEpoch> cold = core.current_epoch();
  EXPECT_FALSE(cold->refreshed);
  EXPECT_EQ(cold->num_symbols, 3u);
  EXPECT_EQ(cold->alphabet.Find("zz"), Alphabet::kNoSymbol);
  EXPECT_EQ(b_match(), 5);

  core.Start();
  core.AwaitRefresh();
  EXPECT_TRUE(core.current_epoch()->refreshed);
  EXPECT_EQ(core.current_epoch()->num_symbols, 3u);
  EXPECT_EQ(b_match(), 5);
  core.DrainAndStop();
}

TEST(DaemonCoreTest, NamesLeaveWithTheirQueries) {
  DaemonOptions options;
  options.refresh_cap = 512;
  std::vector<std::string> bank = InitialQueries();
  for (const char* q : {"a then b", "//a/*/c", "balanced b c", "/d//e"}) {
    bank.push_back(q);
  }
  DaemonCore core(bank, options);
  ASSERT_TRUE(core.ok());
  core.Start();
  const size_t symbols = core.current_epoch()->num_symbols;

  // Each cycle admits a query over two names no other query mentions,
  // serves one document with it, and retires it: the names must leave
  // with it, from the cold epoch and from the refreshed one.
  for (int i = 0; i < 200; ++i) {
    const std::string n = "n" + std::to_string(i);
    const std::string m = "m" + std::to_string(i);
    Result<uint64_t> qid = core.Admit("//" + n + "/" + m);
    ASSERT_TRUE(qid.ok()) << qid.status().message();
    SubmitOutcome outcome =
        core.Submit("<" + n + "><" + m + "/></" + n + ">", InputFormat::kXml)
            .Take();
    EXPECT_EQ(outcome.epoch->num_symbols, symbols + 2);
    EXPECT_TRUE(outcome.result.accept.back()) << "cycle " << i;
    ASSERT_TRUE(core.Retire(*qid).ok());
    EXPECT_EQ(core.current_epoch()->num_symbols, symbols) << "cycle " << i;
    core.AwaitRefresh();
    std::shared_ptr<const DaemonEpoch> epoch = core.current_epoch();
    ASSERT_EQ(epoch->num_symbols, symbols) << "cycle " << i;
    ASSERT_EQ(epoch->alphabet.size(), symbols) << "cycle " << i;
    ASSERT_EQ(epoch->qids.size(), bank.size()) << "cycle " << i;
  }
  core.DrainAndStop();
}

/// "n0 then n1 then ... n<count-1>", each name new to the daemon.
std::string NameChain(size_t count) {
  std::string chain = "n0";
  for (size_t i = 1; i < count; ++i) chain += " then n" + std::to_string(i);
  return chain;
}

TEST(DaemonCoreTest, RejectedAdmitsInternNoNames) {
  DaemonOptions options;
  DaemonCore core({"//b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();
  const size_t symbols = core.current_epoch()->num_symbols;

  // A 70,000-name chain that fails to parse at its last byte. None of
  // its names may stay interned: past 16-bit symbol ids the next valid
  // ADMIT would abort compiling its return rules.
  Result<uint64_t> bad = core.Admit(NameChain(70000) + ")");
  ASSERT_FALSE(bad.ok());
  ASSERT_TRUE(core.Admit("//b/b").ok());
  EXPECT_EQ(core.current_epoch()->num_symbols, symbols);

  // The same chain, syntactically valid: refused for its symbol count.
  bad = core.Admit(NameChain(70000));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("symbol"), std::string::npos)
      << bad.status().message();
  ASSERT_TRUE(core.Admit("//b").ok());
  EXPECT_EQ(core.current_epoch()->num_symbols, symbols);
  EXPECT_EQ(core.current_epoch()->alphabet.size(), symbols);
  core.DrainAndStop();
}

// ---------------------------------------------------------------------------
// Hit-rate climb: a cold admission misses, the refresh restores hits
// ---------------------------------------------------------------------------

struct HitRate {
  uint64_t hits = 0;
  uint64_t misses = 0;
  double rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

HitRate FrozenDelta(const StatsSnapshot& a, const StatsSnapshot& b) {
  SinkSnapshot agg = SnapshotDelta(a, b).Aggregate();
  return {agg.counter("frozen_hits"), agg.counter("frozen_misses")};
}

TEST(DaemonCoreTest, HitRateClimbsAfterRefresh) {
  DaemonOptions options;
  options.threads = 2;
  // Small cap: the refresh's replay training promotes the reservoir's
  // tuples first, so resubmitting the same documents hits regardless.
  options.refresh_cap = 512;
  DaemonCore core(InitialQueries(), options);
  ASSERT_TRUE(core.ok());
  core.Start();

  std::vector<TaggedDoc> corpus = MakeCorpus(10, 77);

  // Cold phase: admit, then race the background refresher for the cold
  // epoch — dispatch latency is microseconds against a refresh's
  // replay+explore milliseconds, so a handful of attempts always wins;
  // the epoch tag on every outcome proves which snapshot served us.
  HitRate cold;
  bool measured_cold = false;
  for (int attempt = 0; attempt < 5 && !measured_cold; ++attempt) {
    uint64_t qid =
        core.Admit("//climb" + std::to_string(attempt)).Take();
    (void)qid;
    StatsSnapshot before = CaptureSnapshot(core.registry());
    bool all_cold = true;
    for (const TaggedDoc& doc : corpus) {
      SubmitOutcome outcome = core.Submit(doc.text, doc.format).Take();
      all_cold = all_cold && !outcome.epoch->refreshed;
    }
    StatsSnapshot after = CaptureSnapshot(core.registry());
    if (all_cold) {
      cold = FrozenDelta(before, after);
      measured_cold = true;
    }
  }
  ASSERT_TRUE(measured_cold)
      << "refresher won the publish race five times in a row";

  // Refreshed phase: every document must land on a refreshed epoch.
  core.AwaitRefresh();
  StatsSnapshot before = CaptureSnapshot(core.registry());
  for (const TaggedDoc& doc : corpus) {
    SubmitOutcome outcome = core.Submit(doc.text, doc.format).Take();
    EXPECT_TRUE(outcome.epoch->refreshed);
  }
  StatsSnapshot after = CaptureSnapshot(core.registry());
  HitRate warm = FrozenDelta(before, after);

  EXPECT_GT(warm.hits + warm.misses, 0u);
  EXPECT_GT(warm.rate(), cold.rate())
      << "cold " << cold.hits << "/" << cold.misses << " vs warm "
      << warm.hits << "/" << warm.misses;
  // The cold snapshot holds one unexplored state — essentially every
  // step misses; the refresh replays recent traffic, so hits dominate.
  EXPECT_LT(cold.rate(), 0.5);
  EXPECT_GT(warm.rate(), 0.9);

  EpochMetrics metrics = core.Metrics();
  EXPECT_TRUE(metrics.refreshed);
  EXPECT_GE(metrics.refreshes, 2u);
  EXPECT_GE(metrics.admissions, 1u);
  core.DrainAndStop();
}

// ---------------------------------------------------------------------------
// Soak: concurrent submitters vs online admission/retirement (run under
// TSan in CI — the epoch RCU handoff is the thing being raced)
// ---------------------------------------------------------------------------

TEST(DaemonSoak, EpochIdenticalUnderConcurrentAdmission) {
  constexpr size_t kSubmitters = 8;
  constexpr size_t kRounds = 6;

  DaemonOptions options;
  options.threads = 4;
  options.refresh_cap = 512;  // see DaemonDifferential: cap-independent
  DaemonCore core(InitialQueries(), options);
  ASSERT_TRUE(core.ok());
  core.Start();

  std::vector<TaggedDoc> corpus = MakeCorpus(12, 4242);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<uint64_t> mismatches{0};
  std::mutex first_mu;
  std::string first_error;

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t]() {
      OracleCache oracles;  // per-thread: QueryEngine is stateful
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const TaggedDoc& doc = corpus[i++ % corpus.size()];
        Result<SubmitOutcome> r = core.Submit(doc.text, doc.format);
        if (!r.ok()) break;  // drain started mid-loop
        SubmitOutcome outcome = r.Take();
        std::string diff = CompareOutcome(
            outcome, oracles.For(*outcome.epoch), doc.text, doc.format);
        if (!diff.empty()) {
          mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lock(first_mu);
          if (first_error.empty()) {
            first_error =
                diff + " at epoch " + std::to_string(outcome.epoch->id);
          }
        }
        verified.fetch_add(1);
      }
    });
  }

  // Control plane: admissions and retirements while documents stream.
  std::vector<uint64_t> admitted;
  for (size_t round = 0; round < kRounds; ++round) {
    Result<uint64_t> qid =
        core.Admit("//soak" + std::to_string(round) + "/b");
    ASSERT_TRUE(qid.ok()) << qid.status().message();
    admitted.push_back(qid.Take());
    if (round % 2 == 1) {
      ASSERT_TRUE(core.Retire(admitted[round - 1]).ok());
    }
    if (round == kRounds / 2) core.AwaitRefresh();
  }
  core.AwaitRefresh();

  stop.store(true);
  for (std::thread& t : submitters) t.join();
  core.DrainAndStop();

  EXPECT_EQ(mismatches.load(), 0u) << first_error;
  // Every submitter verified real traffic across the whole soak.
  EXPECT_GE(verified.load(), kSubmitters * corpus.size());
  EXPECT_TRUE(core.current_epoch()->refreshed);
  EpochMetrics metrics = core.Metrics();
  EXPECT_EQ(metrics.admissions, kRounds);
  EXPECT_EQ(metrics.retirements, kRounds / 2);
  EXPECT_GE(metrics.refreshes, 2u);
  EXPECT_EQ(metrics.total_documents, verified.load());
}

// ---------------------------------------------------------------------------
// Server: socket round-trips, SHUTDOWN, /metrics, and SIGTERM drain
// ---------------------------------------------------------------------------

std::string TempSocketPath(const char* tag) {
  const char* base = ::getenv("TMPDIR");
  if (base == nullptr) base = "/tmp";
  return std::string(base) + "/nwd_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

int UnixConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request line, reads one newline-terminated response.
std::string RoundTrip(int fd, const std::string& line) {
  std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), 0) !=
      static_cast<ssize_t>(out.size())) {
    return "";
  }
  std::string response;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    response += c;
  }
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(DaemonServerTest, ShutdownRequestStopsTheLoop) {
  DaemonOptions options;
  DaemonCore core({"//b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();

  ServerOptions server_options;
  server_options.socket_path = TempSocketPath("shutdown");
  server_options.http_port = 0;  // ephemeral
  DaemonServer server(&core, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.http_port(), 0);
  std::thread runner([&]() { server.Run(); });

  int fd = UnixConnect(server_options.socket_path);
  ASSERT_GE(fd, 0);

  std::string response =
      RoundTrip(fd, R"({"op":"SUBMIT","doc":"<a><b/></a>","label":"d"})");
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos) << response;
  EXPECT_NE(response.find(R"("match":true)"), std::string::npos) << response;

  response = RoundTrip(fd, "this is not json");
  EXPECT_NE(response.find(R"("ok":false)"), std::string::npos) << response;

  response = RoundTrip(fd, R"({"op":"STATS"})");
  EXPECT_NE(response.find(R"("epoch")"), std::string::npos) << response;

  // /metrics renders the Prometheus exposition from the core registry.
  std::string metrics = HttpGet(server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# HELP"), std::string::npos);
  EXPECT_NE(metrics.find("nw_"), std::string::npos);
  EXPECT_NE(HttpGet(server.http_port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.http_port(), "/nope").find("404"),
            std::string::npos);

  // SHUTDOWN answers first, then the loop winds down.
  response = RoundTrip(fd, R"({"op":"SHUTDOWN"})");
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos) << response;
  ::close(fd);
  runner.join();
  core.DrainAndStop();

  // The socket file is gone — a restart binds fresh.
  EXPECT_NE(::access(server_options.socket_path.c_str(), F_OK), 0);
}

/// Reads one newline-terminated response.
std::string ReadLine(int fd) {
  std::string response;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') response += c;
  return response;
}

/// A response without its `"latency_us":N` field, the one part that
/// differs between two answers to the same request.
std::string WithoutLatency(std::string response) {
  size_t at = response.find("\"latency_us\":");
  if (at == std::string::npos) return response;
  size_t end = response.find_first_of(",}", at);
  response.erase(at, end - at + (response[end] == ',' ? 1 : 0));
  return response;
}

TEST(DaemonServerTest, RequestSplitAcrossManyWritesMatchesOneWrite) {
  DaemonOptions options;
  DaemonCore core({"//b", "/a/c", "a then b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();

  ServerOptions server_options;
  server_options.socket_path = TempSocketPath("split");
  DaemonServer server(&core, server_options);
  ASSERT_TRUE(server.Start().ok());
  std::thread runner([&]() { server.Run(); });

  // A ~20 KB SUBMIT line spans several of the server's 4 KB reads.
  std::string doc;
  for (int i = 0; i < 800; ++i) doc += i % 7 == 0 ? "<a><c/></a>" : "<z>t</z>";
  doc += "<a><b/></a>";
  const std::string line =
      R"({"op":"SUBMIT","label":"split","doc":")" + doc + "\"}\n";

  int whole = UnixConnect(server_options.socket_path);
  ASSERT_GE(whole, 0);
  ASSERT_EQ(::send(whole, line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
  const std::string expected = WithoutLatency(ReadLine(whole));
  ASSERT_NE(expected.find(R"("ok":true)"), std::string::npos) << expected;
  ASSERT_NE(expected.find(R"("match":true)"), std::string::npos) << expected;
  ::close(whole);

  // The same line twice more, in writes of 1 to 97 bytes with a pause
  // every few writes so the server sees partial lines; one write carries
  // the end of the first line and the start of the second.
  int fd = UnixConnect(server_options.socket_path);
  ASSERT_GE(fd, 0);
  const std::string twice = line + line;
  size_t sent = 0;
  for (size_t i = 0; sent < twice.size(); ++i) {
    size_t n = std::min(twice.size() - sent, 1 + (i * 37) % 97);
    ASSERT_EQ(::send(fd, twice.data() + sent, n, 0),
              static_cast<ssize_t>(n));
    sent += n;
    if (i % 4 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(WithoutLatency(ReadLine(fd)), expected);
  EXPECT_EQ(WithoutLatency(ReadLine(fd)), expected);
  ::close(fd);

  server.Stop();
  runner.join();
  core.DrainAndStop();
}

/// Entries of /proc/self/task: this process's threads.
size_t ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (struct dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

/// Lines of /proc/self/maps: this process's mappings. A thread that
/// exits without being joined keeps its stack (and guard) mapped.
size_t MapCount() {
  FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return 0;
  size_t n = 0;
  for (int c; (c = std::fgetc(f)) != EOF;) n += c == '\n';
  std::fclose(f);
  return n;
}

/// Waits up to two seconds for the thread count to fall to `bound`.
size_t ThreadCountSettlesTo(size_t bound) {
  size_t n = ThreadCount();
  for (int i = 0; i < 200 && n > bound; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = ThreadCount();
  }
  return n;
}

/// A started core plus a server running on its own thread.
struct LiveServer {
  explicit LiveServer(const char* tag, std::vector<std::string> queries = {
                                           "//b"})
      : core(queries, DaemonOptions{}) {
    core.Start();
    options.socket_path = TempSocketPath(tag);
    server = std::make_unique<DaemonServer>(&core, options);
    ok = server->Start().ok();
    if (ok) runner = std::thread([this]() { server->Run(); });
  }
  ~LiveServer() {
    server->Stop();
    if (runner.joinable()) runner.join();
    core.DrainAndStop();
  }

  DaemonCore core;
  ServerOptions options;
  std::unique_ptr<DaemonServer> server;
  std::thread runner;
  bool ok = false;
};

TEST(DaemonServerTest, ConnectionThreadsAreJoinedAsTheyFinish) {
  LiveServer live("reap");
  ASSERT_TRUE(live.ok);
  const size_t start = ThreadCount();
  const size_t maps = MapCount();
  ASSERT_GT(start, 0u);
  for (int i = 0; i < 2000; ++i) {
    int fd = UnixConnect(live.options.socket_path);
    ASSERT_GE(fd, 0) << "connection " << i;
    std::string response = RoundTrip(fd, R"({"op":"SUBMIT","doc":"<b/>"})");
    ASSERT_NE(response.find(R"("match":true)"), std::string::npos)
        << "connection " << i << ": " << response;
    ::close(fd);
  }
  EXPECT_LE(ThreadCountSettlesTo(start + 2), start + 2);
  // Joined stacks are unmapped or cached; 2,000 unjoined ones would
  // leave about 4,000 mappings behind.
  EXPECT_LE(MapCount(), maps + 64);
}

TEST(DaemonServerTest, ConnectionsPastTheCapAreRefusedBusy) {
  LiveServer live("busy");
  ASSERT_TRUE(live.ok);
  std::vector<int> fds;
  for (size_t i = 0; i < kMaxConnections; ++i) {
    int fd = UnixConnect(live.options.socket_path);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    // Answered, so the server holds this connection open.
    ASSERT_NE(RoundTrip(fd, "{}").find(R"("ok":false)"), std::string::npos);
  }
  int extra = UnixConnect(live.options.socket_path);
  ASSERT_GE(extra, 0);
  EXPECT_EQ(ReadLine(extra), R"({"ok":false,"error":"busy"})");
  ::close(extra);
  for (int fd : fds) ::close(fd);
  // The closed connections are reaped, so a new one is served again.
  std::string response;
  for (int attempt = 0; attempt < 50; ++attempt) {
    int fd = UnixConnect(live.options.socket_path);
    ASSERT_GE(fd, 0);
    response = RoundTrip(fd, R"({"op":"STATS"})");
    ::close(fd);
    if (response.find(R"("ok":true)") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos) << response;
}

TEST(DaemonServerTest, OverlongRequestLineIsRefusedAndClosed) {
  LiveServer live("oversize");
  ASSERT_TRUE(live.ok);
  int fd = UnixConnect(live.options.socket_path);
  ASSERT_GE(fd, 0);
  // One byte past the cap, with no newline: the server must answer
  // without waiting for the rest of the line.
  const std::string line(kMaxRequestBytes + 1, 'x');
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  std::string response = ReadLine(fd);
  EXPECT_NE(response.find(R"("ok":false)"), std::string::npos) << response;
  EXPECT_NE(response.find("exceeds"), std::string::npos) << response;
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "connection left open";
  ::close(fd);

  fd = UnixConnect(live.options.socket_path);
  ASSERT_GE(fd, 0);
  response = RoundTrip(fd, R"({"op":"STATS"})");
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos) << response;
  ::close(fd);
}

TEST(DaemonServerTest, EachSubmitRecordsOneSampleInEveryShare) {
  LiveServer live("shares", {"//b", "/a/c"});
  ASSERT_TRUE(live.ok);
  const char* kShares[] = {"submit_wait_us", "submit_decode_us",
                           "submit_eval_us", "submit_send_us"};
  StatsSnapshot before = CaptureSnapshot(live.core.registry());
  int fd = UnixConnect(live.options.socket_path);
  ASSERT_GE(fd, 0);
  constexpr uint64_t kSubmits = 25;
  for (uint64_t i = 0; i < kSubmits; ++i) {
    ASSERT_NE(RoundTrip(fd, R"({"op":"SUBMIT","doc":"<a><c/></a>"})")
                  .find(R"("ok":true)"),
              std::string::npos);
    // Other ops and refused lines record no SUBMIT share.
    ASSERT_NE(RoundTrip(fd, R"({"op":"STATS"})").find(R"("ok":true)"),
              std::string::npos);
    ASSERT_NE(RoundTrip(fd, "nope").find(R"("ok":false)"), std::string::npos);
  }
  // The render+send share lands after the reply is sent; STATS is
  // answered after it on the same connection, so it is in by now.
  std::string stats = RoundTrip(fd, R"({"op":"STATS"})");
  ::close(fd);
  SinkSnapshot delta =
      SnapshotDelta(before, CaptureSnapshot(live.core.registry()))
          .Aggregate();
  for (const char* share : kShares) {
    EXPECT_EQ(delta.histogram(share).count, kSubmits) << share;
  }
  EXPECT_EQ(delta.counter("daemon_docs"), kSubmits);
  EXPECT_NE(stats.find(R"("submit_p50_us":{"wait":)"), std::string::npos)
      << stats;
  const std::string prom = live.core.registry().RenderProm();
  const std::string json = live.core.registry().RenderJson();
  for (const char* share : kShares) {
    EXPECT_NE(prom.find(std::string("nw_") + share), std::string::npos)
        << share;
    EXPECT_NE(json.find(std::string("\"") + share + "\""), std::string::npos)
        << share;
  }
}

TEST(DaemonServerTest, StopReturnsWithIdleConnectionsOpen) {
  DaemonOptions options;
  DaemonCore core({"//b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();
  ServerOptions server_options;
  server_options.socket_path = TempSocketPath("idle");
  DaemonServer server(&core, server_options);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> returned{false};
  std::thread runner([&]() {
    server.Run();
    returned.store(true);
  });

  // Clients that stay connected, idle, while the server stops: each
  // connection thread ends at its next idle poll and must still be
  // joined by Run().
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    int fd = UnixConnect(server_options.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_NE(RoundTrip(fd, R"({"op":"STATS"})").find(R"("ok":true)"),
              std::string::npos);
    fds.push_back(fd);
  }
  server.Stop();
  for (int i = 0; i < 1000 && !returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!returned.load()) {
    std::fprintf(stderr, "Run() did not return with idle connections open\n");
    std::abort();
  }
  runner.join();
  for (int fd : fds) ::close(fd);
  core.DrainAndStop();
}

TEST(DaemonServerTest, SigtermDrainsWithoutDying) {
  DaemonOptions options;
  DaemonCore core({"//b"}, options);
  ASSERT_TRUE(core.ok());
  core.Start();

  ServerOptions server_options;
  server_options.socket_path = TempSocketPath("sigterm");
  DaemonServer server(&core, server_options);
  ASSERT_TRUE(server.Start().ok());
  int wake_fd = InstallSignalWakeFd();
  ASSERT_GE(wake_fd, 0);
  server.set_wake_fd(wake_fd);
  std::thread runner([&]() { server.Run(); });

  // Real traffic first, then the signal. Without the self-pipe handler
  // this raise() would terminate the whole test binary — the test
  // passing IS the death-free assertion.
  int fd = UnixConnect(server_options.socket_path);
  ASSERT_GE(fd, 0);
  std::string response = RoundTrip(fd, R"({"op":"SUBMIT","doc":"<b/>"})");
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  ::close(fd);

  ASSERT_EQ(::raise(SIGTERM), 0);
  runner.join();  // Run() returns: accept loop saw the wake byte
  core.DrainAndStop();
  EXPECT_GE(core.Metrics().total_documents, 1u);
}

}  // namespace
}  // namespace nw
