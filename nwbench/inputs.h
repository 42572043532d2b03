// Seeded inputs for NWBench: a Zipf-skewed element vocabulary, random
// document trees rendered as XML, JSON or trace text, the query banks and
// the admission pool, plus the single-stream oracle every output is
// checked against. The program under test only ever sees the rendered
// text; nothing here calls the library's own generators, so a change to
// those cannot change the benchmark's inputs.
#ifndef NWBENCH_INPUTS_H_
#define NWBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nw/alphabet.h"
#include "nwa/nwa.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/sharded.h"
#include "stream/token_stream.h"
#include "support/rng.h"

namespace nwbench {

/// Element names 4-24 characters long, drawn with Zipf(1) skew: name 0
/// is the most frequent.
class Vocabulary {
 public:
  Vocabulary(uint64_t seed, size_t size);

  const std::string& name(size_t rank) const { return names_[rank]; }
  /// One Zipf-distributed rank.
  size_t Draw(nw::Rng* rng) const;

  /// The eight names the query banks use (a mix of frequent and rarer
  /// ranks). Every other name maps to the catch-all at run time.
  std::vector<std::string> BankNames() const;

 private:
  std::vector<std::string> names_;
  std::vector<double> cdf_;
};

/// One document as text in one front-end format.
struct Doc {
  std::string text;
  nw::InputFormat format = nw::InputFormat::kXml;
};

/// Renders a random document of about `positions` tagged positions and
/// nesting depth at most `max_depth`. The tree depends only on the Rng
/// state, not on `format`: the same Rng state yields the same tree in
/// every format. XML carries attributes and the occasional comment.
Doc GenerateDoc(nw::Rng* rng, const Vocabulary& vocab, size_t positions,
                size_t max_depth, nw::InputFormat format);

/// The bench_sharded_eval query family over `names` (8 names): paths,
/// descendants, child/descendant mixes, `then`, `depth >=`, wildcards and
/// `not`, rotated until there are `k` queries.
std::vector<std::string> BankQueries(const std::vector<std::string>& names,
                                     size_t k);

/// ADMIT pool: path atoms, and `and`/`or`/`not` over at most three atoms,
/// all over `names` (so admissions never grow the symbol space). Entry i
/// has shape i % 7. The formulas are drawn from a fixed Rng over name
/// indices, so two seeds admit the same formulas up to the spelling of
/// the names, in the same order, and admission cost does not hinge on the
/// seed. Formulas with nested negation, whose compile takes seconds, are
/// left out.
std::vector<std::string> AdmissionPool(const std::vector<std::string>& names,
                                       size_t n);

/// A bank compiled the way nwquery and nwqueryd compile one: query names
/// interned in order, then "#text" and the "%other" catch-all, then
/// OptimizeBank with every pass.
struct CompiledBank {
  nw::Alphabet alphabet;
  nw::Symbol other = nw::Alphabet::kNoSymbol;
  std::vector<nw::Query> queries;
  nw::OptimizedBank bank;
};

/// Heap-allocated, because the product bank points into `bank.queries`.
std::unique_ptr<CompiledBank> CompileBank(
    const std::vector<std::string>& texts);

/// Single-stream oracle: a fresh per-query compile of each text
/// (CompileOptimized, as tests/daemon_test.cc's oracle compiles) stepped
/// by the SoA QueryEngine (the `Add` path, which shares no code with the
/// product bank, the frozen snapshot or the overflow banks), with match
/// tracking on. An unoptimized CompileQuery of an `or` takes seconds.
/// Compiled automata are cached by text; every query must use only the
/// names of the first bank passed to the constructor, so all share one
/// symbol space.
class Oracle {
 public:
  explicit Oracle(const std::vector<std::string>& base_queries);

  /// Expected result of `doc` under `queries`, in that order.
  nw::DocResult Eval(const std::vector<std::string>& queries,
                     const Doc& doc);

  /// Compiles `text` now (cached), so a later Eval does not.
  const nw::Nwa* Prepare(const std::string& text);

 private:
  nw::Alphabet alphabet_;
  nw::Symbol other_ = nw::Alphabet::kNoSymbol;
  size_t num_symbols_ = 0;
  std::map<std::string, std::unique_ptr<nw::Nwa>> compiled_;
};

/// Exact comparison of accept bits, first-match positions of accepted
/// queries, and the position count. Returns "" on agreement, otherwise a
/// description of the first difference.
std::string CompareResult(const nw::DocResult& want,
                          const nw::DocResult& got);

/// `doc` as a JSON string literal (quotes included), the way the SUBMIT
/// line carries it.
std::string JsonQuote(const std::string& text);

}  // namespace nwbench

#endif  // NWBENCH_INPUTS_H_
