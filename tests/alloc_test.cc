// "No heap allocation per token", pinned by a count rather than a timer.
// This binary replaces the global operator new with one that counts calls
// atomically. Through each front end's read-only constructor, and through
// ShardedEvaluator::EvaluateCorpus at one thread over an exhaustively
// explored snapshot, a 10k-position document must allocate no more often
// than a 1k-position document of the same depth. The names of both are
// mostly absent from the alphabet, so a path that interned or copied a
// name per token would allocate more for the longer document. Counts are
// exact and repeat exactly, so the bar holds on any host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "json/json.h"
#include "opt/pipeline.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "stream/tree_gen.h"
#include "support/rng.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// Every replaceable non-aligned form, so each allocation is counted once
// and each pair is a plain malloc/free (sanitizer runtimes included);
// the over-aligned forms are left alone, as nothing here makes one.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nw {
namespace {

constexpr size_t kDepth = 7;

template <typename F>
size_t CountAllocations(F&& f) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// A forest of about `positions` positions in which every root is a
/// chain exactly kDepth elements deep (so both documents reach the same
/// depth), each link with a text leaf beside it. Names draw from 500
/// spellings longer than a short-string buffer (so copying one would
/// allocate), of which the test alphabet holds two.
std::vector<TreeNode> ChainForest(size_t positions, uint64_t seed) {
  Rng rng(seed);
  auto name = [&] {
    return "element_number_" + std::to_string(rng.Below(500));
  };
  std::vector<TreeNode> forest;
  size_t emitted = 0;
  while (emitted < positions) {
    TreeNode root;
    TreeNode* link = &root;
    for (size_t d = 0; d < kDepth; ++d) {
      link->name = name();
      TreeNode leaf;
      leaf.name = name();
      leaf.text = "w";
      link->children.push_back(leaf);
      emitted += 5;  // the link's call/return, the leaf's call/text/return
      if (d + 1 < kDepth) {
        link->children.emplace_back();
        link = &link->children.back();
      }
    }
    forest.push_back(std::move(root));
  }
  return forest;
}

/// The serving alphabet: two of the document names, the text
/// pseudo-symbol and the catch-all, as the CLI and the daemon build it.
struct Served {
  Alphabet alphabet;
  Symbol other;
  OptimizedBank bank;
  std::shared_ptr<const FrozenBank> frozen;
};

std::unique_ptr<Served> ServeExplored() {
  auto s = std::make_unique<Served>();
  std::vector<Query> queries;
  for (const char* text :
       {"//element_number_1", "/element_number_2/element_number_1",
        "element_number_1 then element_number_2", "depth >= 4"}) {
    queries.push_back(ParseQuery(text, &s->alphabet).Take());
  }
  s->alphabet.Intern("#text");
  s->other = s->alphabet.Intern("%other");
  s->bank = OptimizeBank(queries, s->alphabet.size(), OptOptions::All());
  EXPECT_TRUE(s->bank.shared->ExploreAll(1u << 20));
  s->frozen = FrozenBank::FreezeShared(*s->bank.shared);
  return s;
}

std::string Render(InputFormat format, const std::vector<TreeNode>& forest) {
  switch (format) {
    case InputFormat::kJson:
      return RenderJson(forest);
    case InputFormat::kTrace:
      return RenderTrace(forest);
    default:
      return RenderXml(forest);
  }
}

template <typename Stream>
size_t TokenizeReadOnly(const std::string& doc, const Alphabet& alphabet) {
  return CountAllocations([&] {
    Stream stream(doc, alphabet);
    TaggedSymbol t;
    size_t n = 0;
    while (stream.Next(&t)) ++n;
    EXPECT_GT(n, 0u);
  });
}

size_t TokenizeReadOnly(InputFormat format, const std::string& doc,
                        const Alphabet& alphabet) {
  switch (format) {
    case InputFormat::kJson:
      return TokenizeReadOnly<JsonTokenStream>(doc, alphabet);
    case InputFormat::kTrace:
      return TokenizeReadOnly<TraceTokenStream>(doc, alphabet);
    default:
      return TokenizeReadOnly<XmlTokenStream>(doc, alphabet);
  }
}

const InputFormat kFormats[] = {InputFormat::kXml, InputFormat::kJson,
                                InputFormat::kTrace};

TEST(Allocations, ReadOnlyStreamsDoNotAllocatePerToken) {
  std::unique_ptr<Served> s = ServeExplored();
  for (InputFormat format : kFormats) {
    SCOPED_TRACE(InputFormatName(format));
    const std::string small = Render(format, ChainForest(1000, 1));
    const std::string large = Render(format, ChainForest(10000, 2));
    const size_t small_count = TokenizeReadOnly(format, small, s->alphabet);
    const size_t large_count = TokenizeReadOnly(format, large, s->alphabet);
    EXPECT_LE(large_count, small_count);
    EXPECT_EQ(TokenizeReadOnly(format, large, s->alphabet), large_count);
  }
}

TEST(Allocations, EvaluateCorpusDoesNotAllocatePerToken) {
  std::unique_ptr<Served> s = ServeExplored();
  for (InputFormat format : kFormats) {
    SCOPED_TRACE(InputFormatName(format));
    ShardedEvaluator evaluator(s->frozen.get(), s->alphabet.size(), s->other,
                               1, format);
    const std::vector<std::string> small = {
        Render(format, ChainForest(1000, 3))};
    const std::vector<std::string> large = {
        Render(format, ChainForest(10000, 4))};
    auto evaluate = [&](const std::vector<std::string>& corpus) {
      return CountAllocations([&] {
        std::vector<DocResult> r =
            evaluator.EvaluateCorpus(corpus, s->alphabet, true);
        EXPECT_EQ(r.size(), 1u);
      });
    };
    const size_t small_count = evaluate(small);
    const size_t large_count = evaluate(large);
    // Every step hit the explored snapshot, so no bank state was made.
    EXPECT_EQ(evaluator.stats().frozen_misses, 0u);
    EXPECT_GE(evaluator.stats().positions, 10000u);
    EXPECT_LE(large_count, small_count);
    EXPECT_EQ(evaluate(large), large_count);
  }
}

}  // namespace
}  // namespace nw
