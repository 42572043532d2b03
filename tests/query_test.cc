// Tests for the NWQuery subsystem: parser round-trips, compiled-automaton
// semantics against a naive tree-walk oracle (on well-formed AND malformed
// documents), and the batched engine's one-traversal guarantee.
#include "query/nwquery.h"

#include <gtest/gtest.h>

#include <functional>

#include "query/compile.h"
#include "query/engine.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------------
// Naive oracle: one pass over the tagged stream, maintaining the chain of
// open element names. A close tag closes the innermost open element
// regardless of its name; a stray close at top level leaves the context at
// the root. Matching a path pattern against the chain is brute-force
// recursion — deliberately nothing like the automaton construction.
// ---------------------------------------------------------------------------

bool PathChainMatches(const std::vector<PathStep>& steps,
                      const std::vector<Symbol>& chain) {
  // match(i, j): steps[i..] consumes exactly chain[j..].
  std::function<bool(size_t, size_t)> match = [&](size_t i, size_t j) {
    if (i == steps.size()) return j == chain.size();
    if (j == chain.size()) return false;
    const PathStep& s = steps[i];
    auto name_ok = [&](size_t jj) {
      return s.name == Alphabet::kNoSymbol || chain[jj] == s.name;
    };
    if (s.axis == Axis::kChild) {
      return name_ok(j) && match(i + 1, j + 1);
    }
    for (size_t jj = j; jj < chain.size(); ++jj) {
      if (name_ok(jj) && match(i + 1, jj + 1)) return true;
    }
    return false;
  };
  return match(0, 0);
}

bool OracleEval(const Query& q, const NestedWord& doc) {
  switch (q.op()) {
    case Query::Op::kAnd:
      return OracleEval(q.left(), doc) && OracleEval(q.right(), doc);
    case Query::Op::kOr:
      return OracleEval(q.left(), doc) || OracleEval(q.right(), doc);
    case Query::Op::kNot:
      return !OracleEval(q.left(), doc);
    default:
      break;
  }
  std::vector<Symbol> chain;
  bool path_hit = false;
  size_t order_progress = 0;
  size_t max_depth = 0;
  for (const TaggedSymbol& t : doc.tagged()) {
    switch (t.kind) {
      case Kind::kCall:
        chain.push_back(t.symbol);
        max_depth = std::max(max_depth, chain.size());
        if (q.op() == Query::Op::kPath && !path_hit) {
          path_hit = PathChainMatches(q.steps(), chain);
        }
        if (q.op() == Query::Op::kOrder &&
            order_progress < q.names().size() &&
            t.symbol == q.names()[order_progress]) {
          ++order_progress;
        }
        break;
      case Kind::kReturn:
        if (!chain.empty()) chain.pop_back();
        break;
      case Kind::kInternal:
        break;
    }
  }
  switch (q.op()) {
    case Query::Op::kPath:
      return path_hit;
    case Query::Op::kOrder:
      return order_progress == q.names().size();
    case Query::Op::kMinDepth:
      return max_depth >= q.min_depth();
    default:
      return false;  // unreachable
  }
}

/// Randomly corrupts a well-formed document: drops close tags and injects
/// stray ones, producing pending calls and pending returns.
std::string Corrupt(Rng* rng, const std::string& doc) {
  std::string out;
  size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] == '<' && i + 1 < doc.size() && doc[i + 1] == '/' &&
        rng->Chance(1, 5)) {
      // Drop this close tag.
      while (i < doc.size() && doc[i] != '>') ++i;
      if (i < doc.size()) ++i;
      continue;
    }
    if (doc[i] == '<' && rng->Chance(1, 12)) {
      out += "</zz>";  // stray close with a name unknown to the queries
    }
    out += doc[i++];
  }
  return out;
}

// The ≥8 distinct query shapes the acceptance bar asks for, exercising
// every production of the grammar.
const char* kQueryShapes[] = {
    "/a",
    "//b",
    "/a/b",
    "/a//b",
    "//a/*/b",
    "/*",
    "a then b",
    "a then b then c",
    "depth >= 3",
    "/a and //b",
    "//a or //c",
    "not //b",
    "(/a or /c) and not depth >= 4",
    "not (a then b) and //b",
};

Alphabet QueryAlphabet() {
  Alphabet a;
  a.Intern("a");
  a.Intern("b");
  a.Intern("c");
  a.Intern("#text");
  a.Intern("zz");  // appears only via Corrupt()'s stray closes
  return a;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A random query the parser can produce over `names`: paths with
/// wildcards and both axes, `then` chains of 2-4 names, depth guards,
/// balanced atoms, and and/or/not nested up to `depth` deep.
Query RandomQuery(Rng* rng, const std::vector<Symbol>& names, int depth) {
  auto name = [&] { return names[rng->Below(names.size())]; };
  switch (rng->Below(depth == 0 ? 4 : 7)) {
    case 0: {
      std::vector<PathStep> steps(1 + rng->Below(4));
      for (PathStep& s : steps) {
        s.axis = rng->Chance(1, 2) ? Axis::kChild : Axis::kDescendant;
        s.name = rng->Chance(1, 4) ? Alphabet::kNoSymbol : name();
      }
      return Query::Path(std::move(steps));
    }
    case 1: {
      std::vector<Symbol> chain(2 + rng->Below(3));
      for (Symbol& s : chain) s = name();
      return Query::Order(std::move(chain));
    }
    case 2:
      return Query::MinDepth(rng->Below(40));
    case 3: {
      Symbol a = name();
      return Query::Balanced(a, name());
    }
    case 4:
    case 5: {
      Query l = RandomQuery(rng, names, depth - 1);
      Query r = RandomQuery(rng, names, depth - 1);
      return rng->Chance(1, 2) ? Query::And(std::move(l), std::move(r))
                               : Query::Or(std::move(l), std::move(r));
    }
    default:
      return Query::Not(RandomQuery(rng, names, depth - 1));
  }
}

TEST(QueryParser, FormatIsANormalForm) {
  // The fixed shapes, then random trees printed over a name pool whose
  // names run into the keywords' letters.
  std::vector<std::string> inputs(std::begin(kQueryShapes),
                                  std::end(kQueryShapes));
  const size_t num_fixed = inputs.size();
  Alphabet pool;
  std::vector<Symbol> names;
  for (const char* n : {"a", "b", "item", "x-y", "n_1", "not_", "andy",
                        "depth2", "thenable"}) {
    names.push_back(pool.Intern(n));
  }
  Rng rng(20070611);
  for (int i = 0; i < 5000; ++i) {
    inputs.push_back(FormatQuery(RandomQuery(&rng, names, 4), pool));
  }
  // Each text parses, prints, and re-parses into a FRESH alphabet to the
  // same tree over the same names in the same order: a daemon epoch is
  // rebuilt from its queries' printed forms alone.
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string& text = inputs[i];
    Alphabet sigma;
    Result<Query> q = ParseQuery(text, &sigma);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().message();
    std::string printed = FormatQuery(*q, sigma);
    if (i >= num_fixed) EXPECT_EQ(printed, text);
    Alphabet fresh;
    Result<Query> again = ParseQuery(printed, &fresh);
    ASSERT_TRUE(again.ok()) << printed;
    EXPECT_TRUE(*q == *again) << text << " vs " << printed;
    EXPECT_EQ(printed, FormatQuery(*again, fresh)) << text;
    ASSERT_EQ(sigma.size(), fresh.size()) << text;
    for (Symbol s = 0; s < sigma.size(); ++s) {
      EXPECT_EQ(sigma.Name(s), fresh.Name(s)) << text;
    }
  }
}

TEST(QueryParser, ParseBankLaysOutItsOwnSymbols) {
  Result<ParsedBank> bank = ParseBank({"//b/a", "(c then b)", "depth >= 2"});
  ASSERT_TRUE(bank.ok()) << bank.status().message();
  // Names in order of first mention, then #text, then the catch-all.
  const std::vector<std::string> layout = {"b", "a", "c", "#text", "%other"};
  ASSERT_EQ(bank->alphabet.size(), layout.size());
  for (Symbol s = 0; s < layout.size(); ++s) {
    EXPECT_EQ(bank->alphabet.Name(s), layout[s]);
  }
  EXPECT_EQ(bank->other, bank->alphabet.Find("%other"));
  EXPECT_EQ(bank->queries.size(), 3u);
  EXPECT_EQ(bank->texts,
            (std::vector<std::string>{"//b/a", "c then b", "depth >= 2"}));

  // An error names the text that failed.
  size_t failed = 99;
  Result<ParsedBank> bad = ParseBank({"//b", "//b", "//(", "//c"}, &failed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(failed, 2u);
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);
}

TEST(QueryParser, PrecedenceAndAssociativity) {
  Alphabet sigma;
  // `not` binds tighter than `and`, `and` tighter than `or`.
  Query q = ParseQuery("not /a and /b or /c", &sigma).Take();
  EXPECT_EQ(q.op(), Query::Op::kOr);
  EXPECT_EQ(q.left().op(), Query::Op::kAnd);
  EXPECT_EQ(q.left().left().op(), Query::Op::kNot);
  // Parens override.
  Query p = ParseQuery("not (/a and (/b or /c))", &sigma).Take();
  EXPECT_EQ(p.op(), Query::Op::kNot);
  EXPECT_EQ(p.left().op(), Query::Op::kAnd);
  // Binary operators left-associate.
  Query l = ParseQuery("/a or /b or /c", &sigma).Take();
  EXPECT_EQ(l.left().op(), Query::Op::kOr);
  EXPECT_EQ(l.right().op(), Query::Op::kPath);
}

TEST(QueryParser, PathStructure) {
  Alphabet sigma;
  Query q = ParseQuery("/a//b/*", &sigma).Take();
  ASSERT_EQ(q.op(), Query::Op::kPath);
  ASSERT_EQ(q.steps().size(), 3u);
  EXPECT_EQ(q.steps()[0].axis, Axis::kChild);
  EXPECT_EQ(q.steps()[0].name, sigma.Find("a"));
  EXPECT_EQ(q.steps()[1].axis, Axis::kDescendant);
  EXPECT_EQ(q.steps()[1].name, sigma.Find("b"));
  EXPECT_EQ(q.steps()[2].axis, Axis::kChild);
  EXPECT_EQ(q.steps()[2].name, Alphabet::kNoSymbol);
}

TEST(QueryParser, RejectsMalformedInput) {
  Alphabet sigma;
  for (const char* bad : {
           "",                // empty
           "/",               // path without a step
           "//",              // likewise
           "/a and",          // dangling operator
           "a",               // bare name without 'then'
           "a then",          // dangling then
           "depth >= x",      // non-integer bound
           "depth >= 16777216",              // bound exceeds the state cap
           "depth >= 99999999999999999999",  // bound overflows
           "depth 3",         // missing >=
           "(/a or /b",       // unbalanced paren
           "/a trailing",     // trailing input (name w/o then → atom error)
           "/a ! /b",         // unknown token
           "not",             // operand missing
           "a then depth",    // keyword as name
       }) {
    Result<Query> q = ParseQuery(bad, &sigma);
    EXPECT_FALSE(q.ok()) << "'" << bad << "' unexpectedly parsed";
  }
}

TEST(QueryParser, DeepNestingIsAnErrorNotAStackOverflow) {
  Alphabet sigma;
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "not ";
  deep += "/a";
  Result<Query> q = ParseQuery(deep, &sigma);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("nested too deeply"),
            std::string::npos);
  // A reasonable nesting depth still parses.
  std::string ok(64, ' ');
  ok.clear();
  for (int i = 0; i < 64; ++i) ok += "not ";
  ok += "/a";
  EXPECT_TRUE(ParseQuery(ok, &sigma).ok());
}

TEST(QueryParser, ErrorsCarryOffsets) {
  Alphabet sigma;
  Result<Query> q = ParseQuery("/a and depth 3", &sigma);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("offset 13"), std::string::npos)
      << q.status().message();
}

// ---------------------------------------------------------------------------
// Compiled semantics vs. the oracle
// ---------------------------------------------------------------------------

TEST(QueryCompile, HandPickedDocuments) {
  Alphabet sigma = QueryAlphabet();
  struct Case {
    const char* query;
    const char* doc;
    bool expect;
  };
  const Case cases[] = {
      {"/a", "<a></a>", true},
      {"/a", "<b><a></a></b>", false},  // a not at the root
      {"//b", "<a><c><b/></c></a>", true},
      {"//b", "<a><c></c></a>", false},
      {"/a/b", "<a><b/></a>", true},
      {"/a/b", "<a><c><b/></c></a>", false},  // b is a grandchild
      {"/a//b", "<a><c><b/></c></a>", true},
      {"/*", "<c></c>", true},
      {"//a/*/b", "<a><c><b/></c></a>", true},
      {"//a/*/b", "<a><b/></a>", false},  // no intermediate element
      {"a then b", "<a/><b/>", true},
      {"a then b", "<b/><a/>", false},
      {"depth >= 3", "<a><b><c/></b></a>", true},
      {"depth >= 3", "<a><b/></a>", false},
      {"/a and //b", "<a><b/></a>", true},
      {"/a and //b", "<a></a>", false},
      {"not //b", "<a><c/></a>", true},
      {"not //b", "<a><b/></a>", false},
      // Malformed documents: close tags close the innermost open element.
      {"/a/b", "<a><b>", true},         // pending calls still form the chain
      {"//b", "</c><b/>", true},        // stray close then a root b
      {"/a/b", "<a></c><b/>", false},   // </c> closes <a>; b is a root
      {"depth >= 2", "<a></a></a><a><b>", true},
  };
  for (const Case& c : cases) {
    Result<Query> q = ParseQuery(c.query, &sigma);
    ASSERT_TRUE(q.ok()) << c.query;
    Nwa a = CompileQuery(*q, sigma.size());
    Alphabet local = sigma;
    NestedWord doc = XmlToNestedWord(c.doc, &local);
    ASSERT_LE(local.size(), sigma.size()) << c.doc;
    EXPECT_EQ(a.Accepts(doc), c.expect) << c.query << " over " << c.doc;
    EXPECT_EQ(OracleEval(*q, doc), c.expect)
        << "oracle disagrees: " << c.query << " over " << c.doc;
  }
}

TEST(QueryCompile, MatchesOracleOnRandomDocuments) {
  Alphabet sigma = QueryAlphabet();
  std::vector<Query> queries;
  for (const char* text : kQueryShapes) {
    queries.push_back(ParseQuery(text, &sigma).Take());
  }
  std::vector<Nwa> compiled;
  for (const Query& q : queries) {
    compiled.push_back(CompileQuery(q, sigma.size()));
  }
  Rng rng(1234);
  Alphabet gen;  // element names only — no #text pseudo-symbol noise
  gen.Intern("a");
  gen.Intern("b");
  gen.Intern("c");
  for (int iter = 0; iter < 60; ++iter) {
    std::string doc =
        RandomXmlDocument(&rng, gen, 10 + rng.Below(80), 1 + rng.Below(7));
    if (rng.Chance(1, 2)) doc = Corrupt(&rng, doc);
    Alphabet local = sigma;
    NestedWord n = XmlToNestedWord(doc, &local);
    ASSERT_LE(local.size(), sigma.size()) << doc;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(compiled[i].Accepts(n), OracleEval(queries[i], n))
          << kQueryShapes[i] << " over " << doc;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched engine
// ---------------------------------------------------------------------------

TEST(QueryEngine, BatchedEqualsIndividualInOneTraversal) {
  Alphabet sigma = QueryAlphabet();
  std::vector<Query> queries;
  for (const char* text : kQueryShapes) {
    queries.push_back(ParseQuery(text, &sigma).Take());
  }
  // Pad the bank to K = 16 with extra shapes.
  queries.push_back(ParseQuery("//c//b", &sigma).Take());
  queries.push_back(ParseQuery("depth >= 1 and not /c", &sigma).Take());
  ASSERT_EQ(queries.size(), 16u);

  std::vector<Nwa> compiled;
  for (const Query& q : queries) {
    compiled.push_back(CompileQuery(q, sigma.size()));
  }
  QueryEngine engine(sigma.size());
  for (const Nwa& a : compiled) engine.Add(&a);
  ASSERT_EQ(engine.num_queries(), 16u);

  Rng rng(77);
  Alphabet gen;
  gen.Intern("a");
  gen.Intern("b");
  gen.Intern("c");
  size_t expected_traversals = 0;
  for (int iter = 0; iter < 25; ++iter) {
    std::string doc =
        RandomXmlDocument(&rng, gen, 20 + rng.Below(60), 1 + rng.Below(6));
    if (rng.Chance(1, 3)) doc = Corrupt(&rng, doc);
    Alphabet local = sigma;
    NestedWord n = XmlToNestedWord(doc, &local);
    std::vector<bool> batched = engine.RunAll(n);
    ++expected_traversals;
    // K = 16 queries, ONE stream traversal.
    EXPECT_EQ(engine.traversals(), expected_traversals);
    for (size_t i = 0; i < compiled.size(); ++i) {
      EXPECT_EQ(batched[i], compiled[i].Accepts(n)) << i << " over " << doc;
    }
  }
}

TEST(QueryEngine, ResidentStateIsDepthBoundedNotLengthBounded) {
  Alphabet sigma = QueryAlphabet();
  std::vector<Nwa> compiled;
  for (const char* text : {"/a//b", "//c", "depth >= 4", "not //b"}) {
    compiled.push_back(
        CompileQuery(ParseQuery(text, &sigma).Take(), sigma.size()));
  }
  Alphabet gen;
  gen.Intern("a");
  gen.Intern("b");
  gen.Intern("c");
  Rng rng(5);
  // Documents 16× longer leave the PEAK resident state bounded by the
  // (fixed) depth: ResidentStates() reports the stream's high-water
  // footprint, which must track depth, not length.
  for (size_t positions : {500u, 8000u}) {
    std::string doc = RandomXmlDocument(&rng, gen, positions, 6);
    QueryEngine engine(sigma.size());
    for (const Nwa& a : compiled) engine.Add(&a);
    Alphabet local = sigma;
    engine.RunAll(doc, &local);
    EXPECT_GE(engine.MaxStackDepth(), 2u);  // the bound is not vacuous
    EXPECT_LE(engine.MaxStackDepth(), 6u);
    EXPECT_LE(engine.ResidentStates(),
              compiled.size() * (6 + 1));  // K·(depth+1), length-free
  }
}

TEST(QueryEngine, RemapsUnknownSymbolsToCatchAll) {
  // Queries compiled over a closed alphabet still stream documents whose
  // element names were first seen after compilation.
  Alphabet sigma;
  sigma.Intern("a");
  Symbol other = sigma.Intern("%other");
  Query q = ParseQuery("/a", &sigma).Take();
  Query wild = ParseQuery("/*/*", &sigma).Take();
  Nwa qa = CompileQuery(q, sigma.size());
  Nwa qw = CompileQuery(wild, sigma.size());
  QueryEngine engine(sigma.size());
  engine.set_other_symbol(other);
  engine.Add(&qa);
  engine.Add(&qw);
  Alphabet local = sigma;
  NestedWord n = XmlToNestedWord("<mystery><deep/></mystery>", &local);
  ASSERT_GT(local.size(), sigma.size());  // new names really were interned
  std::vector<bool> r = engine.RunAll(n);
  EXPECT_FALSE(r[0]);  // the unknown root is not named 'a'
  EXPECT_TRUE(r[1]);   // but it does have structural depth 2
}

TEST(QueryEngine, EmptyBankAndLateRegistrationAreSafe) {
  Alphabet sigma = QueryAlphabet();
  QueryEngine engine(sigma.size());
  Alphabet local = sigma;
  // Feeding an empty bank (including calls) must not crash.
  NestedWord pending = XmlToNestedWord("<a><b>", &local);
  EXPECT_TRUE(engine.RunAll(pending).empty());
  // A stream with unclosed opens leaves frames behind; registering a
  // query afterwards discards them and realigns the shared stack.
  Nwa q1 = CompileQuery(ParseQuery("//b", &sigma).Take(), sigma.size());
  engine.Add(&q1);
  engine.RunAll(pending);
  EXPECT_EQ(engine.StackDepth(), 2u);  // <a> and <b> still open
  Nwa q2 = CompileQuery(ParseQuery("/a", &sigma).Take(), sigma.size());
  engine.Add(&q2);  // must not abort; frames are discarded
  std::vector<bool> r = engine.RunAll(pending);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
}

TEST(QueryEngine, DeadRunsStayDeadAndReportLiveCount) {
  // An automaton with no transitions dies immediately; live counts drop.
  Alphabet sigma;
  sigma.Intern("a");
  Nwa dead(sigma.size());
  dead.set_initial(dead.AddState(true));
  Nwa alive = CompileQuery(ParseQuery("//a", &sigma).Take(), sigma.size());
  QueryEngine engine(sigma.size());
  engine.Add(&dead);
  engine.Add(&alive);
  engine.BeginStream();
  EXPECT_EQ(engine.Feed(Call(0)), 1u);  // the empty automaton died
  EXPECT_TRUE(engine.dead(0));
  EXPECT_FALSE(engine.dead(1));
  EXPECT_TRUE(engine.Accepting(1));
  EXPECT_FALSE(engine.Accepting(0));
}

}  // namespace
}  // namespace nw
