// Tests for the SAX/XML bridge and the document queries from the paper's
// introduction.
#include "xml/xml.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nw/text.h"
#include "query/engine.h"
#include "serve/sharded.h"
#include "stream/tree_gen.h"
#include "support/rng.h"

namespace nw {
namespace {

TEST(Xml, TokenizerBasics) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a><b>hi</b><c/></a>", &sigma);
  // call a, call b, text, return b, call c, return c, return a
  ASSERT_EQ(n.size(), 7u);
  EXPECT_EQ(n.kind(0), Kind::kCall);
  EXPECT_EQ(n.kind(2), Kind::kInternal);
  EXPECT_EQ(n.kind(3), Kind::kReturn);
  EXPECT_EQ(n.symbol(1), n.symbol(3));  // b matches b
  EXPECT_TRUE(n.IsWellMatched());
  EXPECT_TRUE(n.IsRooted());
}

TEST(Xml, MalformedDocumentsStillTokenize) {
  // The paper's §1 point: nested words represent data that "may not parse
  // correctly" — no error, just pending edges.
  Alphabet sigma;
  NestedWord unclosed = XmlToNestedWord("<a><b>", &sigma);
  EXPECT_EQ(Matching(unclosed).pending_calls(), 2u);
  NestedWord stray = XmlToNestedWord("</a>text", &sigma);
  EXPECT_EQ(Matching(stray).pending_returns(), 1u);
}

TEST(Xml, AttributesSkippedSelfClosingHandled) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a href=\"x\"><img src=\"y\"/></a>", &sigma);
  ASSERT_EQ(n.size(), 4u);
  EXPECT_TRUE(n.IsWellMatched());
}

TEST(Xml, TextSymbolInternedLazily) {
  // A document with no text chunks must not burn a symbol on "#text".
  Alphabet sigma;
  XmlToNestedWord("<a><b/></a>", &sigma);
  EXPECT_EQ(sigma.Find("#text"), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.size(), 2u);
  // Once a text chunk appears, "#text" interns at the point of first use.
  NestedWord n = XmlToNestedWord("<a>hi</a>", &sigma);
  EXPECT_EQ(n.symbol(1), sigma.Find("#text"));
}

TEST(Xml, SlashInsideAttributeIsNotSelfClosing) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a href=\"x/y\"></a>", &sigma);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.kind(0), Kind::kCall);
  EXPECT_EQ(n.kind(1), Kind::kReturn);
  // Self-closing still requires '/' immediately before '>'.
  NestedWord m = XmlToNestedWord("<a href=\"x/y\"/>", &sigma);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.IsWellMatched());
}

TEST(Xml, CommentsDoctypeAndPisAreSkipped) {
  Alphabet sigma;
  // Slashes and '>' inside comments/PIs must not fabricate positions.
  NestedWord n = XmlToNestedWord(
      "<?xml version=\"1.0\"?><!DOCTYPE a>"
      "<!-- see https://example.com, a > b --><a><b/></a><!-- tail",
      &sigma);
  ASSERT_EQ(n.size(), 4u);
  EXPECT_TRUE(n.IsWellMatched());
  EXPECT_EQ(sigma.Name(n.symbol(0)), "a");
  EXPECT_EQ(sigma.Name(n.symbol(1)), "b");
  // CDATA content is character data: one #text internal, never markup.
  NestedWord c = XmlToNestedWord("<a><![CDATA[x > <b>]]></a>", &sigma);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.kind(0), Kind::kCall);
  EXPECT_EQ(c.kind(1), Kind::kInternal);
  EXPECT_EQ(c.kind(2), Kind::kReturn);
  EXPECT_EQ(sigma.Name(c.symbol(1)), "#text");
  // Empty CDATA emits nothing.
  NestedWord e = XmlToNestedWord("<a><![CDATA[]]></a>", &sigma);
  EXPECT_EQ(e.size(), 2u);
  // A DOCTYPE internal subset ([...]) ends at the '>' outside the
  // brackets — markup inside it must not leak into the stream.
  NestedWord d = XmlToNestedWord(
      "<!DOCTYPE a [<!ENTITY x \"v\"><b>]><a></a>", &sigma);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.IsWellMatched());
  EXPECT_EQ(sigma.Name(d.symbol(0)), "a");
}

TEST(Xml, TokenStreamMatchesMaterializedWord) {
  Alphabet sigma1, sigma2;
  const std::string doc = "<a><b>hi</b><c/></a>text</d>";
  NestedWord n = XmlToNestedWord(doc, &sigma1);
  XmlTokenStream stream(doc, &sigma2);
  TaggedSymbol t;
  size_t i = 0;
  while (stream.Next(&t)) {
    ASSERT_LT(i, n.size());
    EXPECT_EQ(t, n[i]) << i;
    ++i;
  }
  EXPECT_EQ(i, n.size());
}

TEST(Xml, WellFormedChecker) {
  Alphabet sigma;
  Nwa check = WellFormedChecker(4);
  auto accepts = [&](const std::string& doc) {
    Alphabet local;
    // Pre-intern to keep symbol ids inside the checker's alphabet.
    local.Intern("#text");
    local.Intern("a");
    local.Intern("b");
    local.Intern("c");
    return check.Accepts(XmlToNestedWord(doc, &local));
  };
  EXPECT_TRUE(accepts("<a><b>x</b></a>"));
  EXPECT_TRUE(accepts("<a/><b/>"));
  EXPECT_TRUE(accepts(""));
  EXPECT_FALSE(accepts("<a><b></a></b>"));  // crossing close order
  EXPECT_FALSE(accepts("<a>"));             // pending open
  EXPECT_FALSE(accepts("</a>"));            // stray close
}

TEST(Xml, PatternOrderQuerySemantics) {
  // Patterns 1, 2 (element names) must open in document order.
  Nwa q = PatternOrderQuery({1, 2}, 4);
  Alphabet sigma;
  sigma.Intern("#text");
  Symbol a = sigma.Intern("a");
  Symbol b = sigma.Intern("b");
  (void)a;
  (void)b;
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<a><b/></a>", &sigma)));
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<c><a/><c><b/></c></c>", &sigma)));
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<b><a/></b>", &sigma)));
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<a/>", &sigma)));
  // Malformed documents can still be queried (linear order only).
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<a><b>", &sigma)));
}

TEST(Xml, PatternOrderQueryIsLinearSize) {
  for (size_t n : {1u, 4u, 9u}) {
    std::vector<Symbol> pats(n, 1);
    Nwa q = PatternOrderQuery(pats, 3);
    EXPECT_EQ(q.num_states(), n + 1);
    EXPECT_TRUE(q.IsFlat());
  }
}

TEST(Xml, MinDepthQuery) {
  Nwa q = MinDepthQuery(3, 2);
  Alphabet sigma;
  sigma.Intern("#text");
  sigma.Intern("d");
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<d><d/></d>", &sigma)));
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<d><d><d/></d></d>", &sigma)));
  // Depth reached then left: still accepted (latched).
  EXPECT_TRUE(
      q.Accepts(XmlToNestedWord("<d><d><d/></d></d><d/>", &sigma)));
}

TEST(Xml, RandomDocumentsAreWellFormed) {
  Rng rng(9);
  Alphabet sigma;
  sigma.Intern("#text");
  sigma.Intern("a");
  sigma.Intern("b");
  for (int iter = 0; iter < 20; ++iter) {
    std::string doc = RandomXmlDocument(&rng, sigma, 60, 6);
    Alphabet local = sigma;
    NestedWord n = XmlToNestedWord(doc, &local);
    EXPECT_TRUE(n.IsWellMatched()) << doc;
    EXPECT_LE(n.Depth(), 6u);
  }
}

TEST(Xml, RoundTripRendering) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a><b>x</b></a>", &sigma);
  std::string xml = NestedWordToXml(n, sigma);
  Alphabet sigma2;
  // "." renders text; re-tokenizing gives the same structure.
  NestedWord n2 = XmlToNestedWord(xml, &sigma2);
  ASSERT_EQ(n2.size(), n.size());
  for (size_t i = 0; i < n.size(); ++i) EXPECT_EQ(n2.kind(i), n.kind(i));
}

TEST(XmlFuzz, MutatedDocumentsNeverFailAndAlwaysRecompose) {
  // The malformed-input contract under a seeded mutation fuzzer
  // (truncations; inserted '<', '>', '/', '"', '\\', ':'; NUL and bytes
  // >= 0x80): every byte string tokenizes, the cursor reaches the end
  // through both constructors, SplitTopLevel chunks concatenate back to
  // the input, and the engine streams it without fault.
  Alphabet sigma({"a", "b", "c", "#text", "%other"});
  Nwa wf = WellFormedChecker(sigma.size());
  Nwa deep = MinDepthQuery(3, sigma.size());
  QueryEngine engine(sigma.size());
  engine.set_other_symbol(sigma.Find("%other"));
  engine.Add(&wf);
  engine.Add(&deep);
  const char kInserts[] = {'<', '>', '/', '"', '\\', ':', '\0', '\x80',
                           '\xff', '!', '?', '-', '['};
  Rng rng(4242);
  for (int round = 0; round < 500; ++round) {
    std::vector<TreeNode> forest =
        RandomForest(&rng, {"a", "b", "c", "dd"}, 10 + rng.Below(80), 6);
    std::string doc = RenderXml(forest);
    if (rng.Chance(1, 3)) doc.insert(0, "<?xml v?><!DOCTYPE d [<!x>]>");
    for (size_t e = 1 + rng.Below(6); e > 0 && !doc.empty(); --e) {
      size_t at = rng.Below(doc.size());
      char c = kInserts[rng.Below(sizeof(kInserts))];
      switch (rng.Below(4)) {
        case 0:
          doc[at] = c;
          break;
        case 1:
          doc.insert(at, 1, c);
          break;
        case 2:
          doc.erase(at, 1 + rng.Below(3));
          break;
        case 3:
          doc.resize(at);  // truncation
          break;
      }
    }
    Alphabet scratch;
    XmlTokenStream interning(doc, &scratch);
    XmlTokenStream read_only(doc, sigma);
    TaggedSymbol t;
    size_t tokens = 0;
    while (interning.Next(&t)) ++tokens;
    while (read_only.Next(&t)) {
    }
    EXPECT_EQ(interning.pos(), doc.size());
    EXPECT_EQ(read_only.pos(), doc.size());
    EXPECT_LE(tokens, doc.size());
    std::string cat;
    for (const std::string& chunk : SplitTopLevel(doc)) cat += chunk;
    EXPECT_EQ(cat, doc);
    engine.RunAll(doc, &sigma);
  }
}

}  // namespace
}  // namespace nw
