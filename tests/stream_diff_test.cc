// Differential tests for the three front ends (src/xml, src/json,
// src/trace) against the byte-at-a-time reference tokenizers they
// replaced (tests/reference_tokenizers.h). Over seeded forests, XML with
// attributes, comments, CDATA, doctypes, processing instructions and
// self-closing tags, JSON with escapes, and a mutation fuzzer (truncations;
// inserted `<`, `>`, `/`, `"`, `\`, `:`; NUL and bytes >= 0x80), every
// stream must yield the reference's kinds and names and stand at the
// reference's pos() after every token — through the interning
// constructor (same ids too) and the read-only one (a name the alphabet
// lacks comes back as alphabet.size()).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "json/json.h"
#include "reference_tokenizers.h"
#include "stream/tree_gen.h"
#include "support/rng.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nw {
namespace {

const std::vector<std::string> kNames = {"a",    "b",     "item", "x_1",
                                         "long-name", "Z9", "_", "-"};

/// Printable rendering of a document for failure messages.
std::string Escaped(const std::string& doc) {
  std::string out;
  for (unsigned char c : doc) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

/// Runs `Stream` (interning and read-only) and `Reference` over `doc`
/// in lockstep and compares every token and every pos().
template <typename Stream, typename Reference>
void ExpectSameTokens(const std::string& doc, const Alphabet& base) {
  SCOPED_TRACE("doc: " + Escaped(doc));
  Alphabet interned = base, referenced = base;
  Reference ref(doc, &referenced);
  Stream stream(doc, &interned);
  Stream read_only(doc, base);
  TaggedSymbol want, got, got_ro;
  for (size_t i = 0;; ++i) {
    SCOPED_TRACE("token " + std::to_string(i));
    const bool more = ref.Next(&want);
    ASSERT_EQ(stream.Next(&got), more);
    ASSERT_EQ(read_only.Next(&got_ro), more);
    ASSERT_EQ(stream.pos(), ref.pos());
    ASSERT_EQ(read_only.pos(), ref.pos());
    if (!more) break;
    const std::string& name = referenced.Name(want.symbol);
    ASSERT_EQ(got.kind, want.kind);
    ASSERT_EQ(got.symbol, want.symbol);
    ASSERT_EQ(interned.Name(got.symbol), name);
    ASSERT_EQ(got_ro.kind, want.kind);
    if (base.Find(name) == Alphabet::kNoSymbol) {
      ASSERT_EQ(got_ro.symbol, base.size()) << "absent name " << name;
    } else {
      ASSERT_EQ(got_ro.symbol, base.Find(name));
    }
  }
  // Both interning paths added the same names.
  ASSERT_EQ(interned.size(), referenced.size());
}

/// A base alphabet holding some of the names (and, on odd `variant`s,
/// the pseudo-symbols), so the read-only path sees present and absent
/// names alike.
Alphabet BaseAlphabet(uint64_t variant) {
  Alphabet base;
  for (size_t i = 0; i < kNames.size(); ++i) {
    if ((variant >> i) & 1) base.Intern(kNames[i]);
  }
  if (variant & 1) {
    base.Intern("#text");
    base.Intern("#obj");
  }
  return base;
}

/// XML exercising every construct the tokenizer distinguishes:
/// attributes (with '/' and '>' in values), comments, CDATA, doctypes
/// with an internal subset, processing instructions, self-closing tags,
/// whitespace-only and real text runs, and stray closers.
std::string RandomMarkup(Rng* rng, size_t elements) {
  static const char* const kText[] = {"text", "  ", "\n\t", " a > b ",
                                      "x", "&amp;", "\xc3\xa9t\xc3\xa9"};
  static const char* const kExtras[] = {
      "<!-- note -->",
      "<!-- a > b / c -->",
      "<![CDATA[<a>raw</a>]]>",
      "<![CDATA[]]>",
      "<!DOCTYPE doc [<!ENTITY e \"v\"> <!ELEMENT a (#PCDATA)>]>",
      "<!DOCTYPE html>",
      "<?xml version=\"1.0\"?>",
      "<?pi a/b?>",
      "</stray>",
      "< a>"};
  std::string out;
  std::vector<std::string> open;
  for (size_t e = 0; e < elements; ++e) {
    switch (rng->Below(6)) {
      case 0:
        out += kExtras[rng->Below(std::size(kExtras))];
        break;
      case 1:
        out += kText[rng->Below(std::size(kText))];
        break;
      case 2:
        if (!open.empty()) {
          out += "</" + open.back() + (rng->Chance(1, 4) ? " >" : ">");
          open.pop_back();
          break;
        }
        [[fallthrough]];
      default: {
        const std::string& name = kNames[rng->Below(kNames.size())];
        out += "<" + name;
        for (size_t a = rng->Below(3); a > 0; --a) {
          out += rng->Chance(1, 2) ? " href=\"x/y\"" : " k='v>w'";
        }
        if (rng->Chance(1, 3)) {
          out += rng->Chance(1, 2) ? "/>" : " />";
        } else {
          out += ">";
          open.push_back(name);
        }
      }
    }
  }
  while (!open.empty()) {
    out += "</" + open.back() + ">";
    open.pop_back();
  }
  return out;
}

/// JSON with escaped quotes and backslashes in keys and scalars, bare
/// scalars, arrays and anonymous containers.
std::string RandomJson(Rng* rng, size_t members) {
  static const char* const kKeys[] = {"\"a\"",      "\"b\\\"q\"", "\"c\\\\\"",
                                      "\"item\"",   "\"#text\"",  "\"\"",
                                      "\"x_1\" "};
  static const char* const kValues[] = {"1",    "-2.5e3", "true", "null",
                                        "\"s\"", "\"e\\\"x\"", "[]", "{}",
                                        "[1, \"two\", {\"a\": 3}]"};
  auto key = [&] { return std::string(kKeys[rng->Below(std::size(kKeys))]); };
  auto value = [&] {
    return std::string(kValues[rng->Below(std::size(kValues))]);
  };
  std::string out = "{";
  for (size_t m = 0; m < members; ++m) {
    if (m > 0) out += rng->Chance(1, 5) ? " , " : ",";
    out += key() + (rng->Chance(1, 4) ? " : " : ":");
    switch (rng->Below(4)) {
      case 0:
        out += "{" + key() + ":" + value() + "}";
        break;
      case 1:
        out += "[{" + key() + ":" + value() + "}, " + value() + "]";
        break;
      default:
        out += value();
    }
  }
  out += "}";
  return out;
}

/// Seeded mutation: truncations, structural-byte insertions and
/// overwrites, NUL and high bytes.
std::string Mutate(Rng* rng, std::string doc) {
  static const char kInserts[] = {'<', '>', '/', '"', '\\', ':', '\0',
                                  '\x80', '\xff', ' ', '[', ']', '{', '}'};
  const size_t edits = 1 + rng->Below(6);
  for (size_t e = 0; e < edits && !doc.empty(); ++e) {
    const size_t at = rng->Below(doc.size());
    const char c = kInserts[rng->Below(sizeof(kInserts))];
    switch (rng->Below(4)) {
      case 0:
        doc[at] = c;
        break;
      case 1:
        doc.insert(at, 1, c);
        break;
      case 2:
        doc.erase(at, 1 + rng->Below(3));
        break;
      case 3:
        doc.resize(at);  // truncation
        break;
    }
  }
  return doc;
}

std::string Garbage(Rng* rng) {
  std::string junk;
  for (size_t i = 1 + rng->Below(96); i > 0; --i) {
    junk.push_back(static_cast<char>(rng->Below(256)));
  }
  return junk;
}

TEST(StreamDiff, XmlMatchesTheReferenceOnForestsAndMarkup) {
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    const Alphabet base = BaseAlphabet(rng.Next());
    std::vector<TreeNode> forest =
        RandomForest(&rng, kNames, 5 + rng.Below(200), 1 + rng.Below(8));
    ExpectSameTokens<XmlTokenStream, reference::XmlTokenizer>(
        RenderXml(forest), base);
    ExpectSameTokens<XmlTokenStream, reference::XmlTokenizer>(
        RandomMarkup(&rng, 1 + rng.Below(60)), base);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamDiff, JsonMatchesTheReferenceOnForestsAndEscapes) {
  Rng rng(12);
  for (int round = 0; round < 200; ++round) {
    const Alphabet base = BaseAlphabet(rng.Next());
    std::vector<TreeNode> forest =
        RandomForest(&rng, kNames, 5 + rng.Below(200), 1 + rng.Below(8));
    ExpectSameTokens<JsonTokenStream, reference::JsonTokenizer>(
        RenderJson(forest), base);
    ExpectSameTokens<JsonTokenStream, reference::JsonTokenizer>(
        RandomJson(&rng, 1 + rng.Below(30)), base);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamDiff, TraceMatchesTheReferenceOnForests) {
  Rng rng(13);
  for (int round = 0; round < 200; ++round) {
    const Alphabet base = BaseAlphabet(rng.Next());
    std::vector<TreeNode> forest =
        RandomForest(&rng, kNames, 5 + rng.Below(200), 1 + rng.Below(8));
    std::string doc = RenderTrace(forest);
    // Self-contained frames and lone brackets, which forests never render.
    doc += rng.Chance(1, 2) ? " <f> < > <> ev\t" : "\n<g>";
    ExpectSameTokens<TraceTokenStream, reference::TraceTokenizer>(doc, base);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamDiff, MutatedDocumentsMatchTheReferenceInEveryFormat) {
  Rng rng(14);
  for (int round = 0; round < 1500; ++round) {
    const Alphabet base = BaseAlphabet(rng.Next());
    std::vector<TreeNode> forest =
        RandomForest(&rng, kNames, 5 + rng.Below(80), 1 + rng.Below(6));
    ExpectSameTokens<XmlTokenStream, reference::XmlTokenizer>(
        Mutate(&rng, rng.Chance(1, 2) ? RenderXml(forest)
                                      : RandomMarkup(&rng, 20)),
        base);
    ExpectSameTokens<JsonTokenStream, reference::JsonTokenizer>(
        Mutate(&rng, rng.Chance(1, 2) ? RenderJson(forest)
                                      : RandomJson(&rng, 8)),
        base);
    ExpectSameTokens<TraceTokenStream, reference::TraceTokenizer>(
        Mutate(&rng, RenderTrace(forest)), base);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamDiff, GarbageMatchesTheReferenceInEveryFormat) {
  Rng rng(15);
  for (int round = 0; round < 500; ++round) {
    const Alphabet base = BaseAlphabet(rng.Next());
    const std::string junk = Garbage(&rng);
    ExpectSameTokens<XmlTokenStream, reference::XmlTokenizer>(junk, base);
    ExpectSameTokens<JsonTokenStream, reference::JsonTokenizer>(junk, base);
    ExpectSameTokens<TraceTokenStream, reference::TraceTokenizer>(junk, base);
    if (HasFatalFailure()) return;
  }
}

TEST(StreamDiff, EdgeCasesAtTheEndOfInput) {
  // Constructs cut off at the last byte, where a run scanner's bounds
  // differ most from a byte loop's.
  const Alphabet base = BaseAlphabet(0b101);
  for (const char* doc :
       {"", "<", "</", "<a", "<a/", "<a /", "</a", "<!", "<!-", "<!--",
        "<!-- x", "<![CDATA[", "<![CDATA[x", "<![CDATA[x]]", "<!DOCTYPE [",
        "<!DOCTYPE [>]", "<?", "<?x", "<a>  ", "<a> t", "a", " ", "<a/>",
        "<a/ >", "<a b='/'>", "<a></a >"}) {
    ExpectSameTokens<XmlTokenStream, reference::XmlTokenizer>(doc, base);
  }
  for (const char* doc :
       {"", "\"", "\"\\", "\"a\\\"", "\"a\":", "\"a\" :", "\"a\"", "{", "}",
        "[", "]", "{\"a\":", "{\"a\":}", "1", "\"k\":\"v", "\"k\" \t:1",
        "\"\\\\\":1", ":", ","}) {
    ExpectSameTokens<JsonTokenStream, reference::JsonTokenizer>(doc, base);
  }
  for (const char* doc : {"", "<", ">", "<>", "<a", "a>", "<a>", " <a> ",
                          "<<>>", "ev", "\t\n"}) {
    ExpectSameTokens<TraceTokenStream, reference::TraceTokenizer>(doc, base);
  }
}

}  // namespace
}  // namespace nw
