// E-OPT — the NWOpt optimizer subsystem's two headline claims:
//
//  1. State reduction: the determinizing lowering the compiler used to
//     run (tests/reference_compile.h: Nnwa closure ops + determinization)
//     blows `not`-heavy queries up to hundreds of states, and congruence
//     minimization wins back the succinctness (acceptance bar: ≥5× on the
//     `not`-heavy family, pinned by tests/opt_test.cc). The table sets the
//     compiler's deterministic products beside it: minimized, each member
//     must be no larger than the minimized reference.
//  2. Shared-bank stepping: compiling the whole bank into one product
//     automaton lets the engine step ONE transition table per position
//     instead of K; the throughput table sweeps K ∈ {1, 16, 64} against
//     the struct-of-arrays path (acceptance bar: measurably faster at
//     K = 16).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "opt/bank.h"
#include "opt/minimize.h"
#include "opt/pipeline.h"
#include "query/compile.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "xml/xml.h"

// The determinizing lowering lives with the tests it is the oracle for.
#include "../tests/reference_compile.h"

namespace {

using namespace nw;

// The `not`-heavy family of the tests' regression, plus friends: through
// the reference lowering, every query pays the ComplementN → Determinize
// round trip at least once.
const char* kNotHeavyFamily[] = {
    "not //b",
    "not (a then b)",
    "not (/a/b or /a/c)",
    "not (//b or (a then b))",
    "not (//a and //b and //c)",
    "not (/a/b and not //c) and not //d",
};

/// Each family member through the reference lowering and through the
/// compiler's products: state counts before/after minimization (`all` is
/// the whole --opt=all pipeline: rewrite, product, minimize) and the
/// time each compile takes.
void MinimizationTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-OPT: minimization on the not-heavy family, reference lowering "
          "vs deterministic product");
  t.Header({"query", "reference", "ref_min", "ratio", "product",
            "product_min", "all", "ref_ms", "product_ms"});
  size_t total_before = 0, total_after = 0, product_total = 0;
  for (const char* text : kNotHeavyFamily) {
    Alphabet sigma;
    for (const char* n : {"a", "b", "c", "d", "#text", "%other"}) {
      sigma.Intern(n);
    }
    Query q = ParseQuery(text, &sigma).Take();
    Stopwatch sw;
    Nwa reference = reference::CompileQuery(q, sigma.size());
    double ref_ms = sw.ElapsedMs();
    MinimizeResult ref_min = MinimizeNwa(reference);
    sw.Reset();
    Nwa product = CompileQuery(q, sigma.size());
    double product_ms = sw.ElapsedMs();
    MinimizeResult product_min = MinimizeNwa(product);
    OptimizedQuery all = CompileOptimized(q, sigma.size(), OptOptions::All());
    // The product never needs more states than the reference, minimized.
    NW_CHECK(product_min.states_after <= ref_min.states_after);
    total_before += reference.num_states();
    total_after += ref_min.states_after;
    product_total += product_min.states_after;
    t.Row({text, Table::Num(reference.num_states()),
           Table::Num(ref_min.states_after),
           Table::Dbl(static_cast<double>(reference.num_states()) /
                          static_cast<double>(ref_min.states_after),
                      1),
           Table::Num(product.num_states()),
           Table::Num(product_min.states_after), Table::Num(all.states_final),
           Table::Dbl(ref_ms, 1), Table::Dbl(product_ms, 2)});
  }
  t.Row({"TOTAL", Table::Num(total_before), Table::Num(total_after),
         Table::Dbl(static_cast<double>(total_before) /
                        static_cast<double>(total_after),
                    1),
         "-", Table::Num(product_total), "-", "-", "-"});
  if (cfg.print()) t.Print();
  report->Metric("minimization_ratio",
                 static_cast<double>(total_before) /
                     static_cast<double>(total_after));
  report->Metric("product_family_states", static_cast<double>(product_total));
  // The state-count bar holds at any workload size (it is not a timing),
  // so quick mode asserts it too.
  NW_CHECK(total_before >= 5 * total_after);  // the acceptance bar
}

// ---------------------------------------------------------------------------
// Shared-bank throughput at K ∈ {1, 16, 64}
// ---------------------------------------------------------------------------

/// Query templates instantiated over rotating element names to build banks
/// of any size without inventing 64 artisanal queries.
std::vector<std::string> BankQueries(size_t k) {
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  constexpr size_t n = sizeof(names) / sizeof(names[0]);
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < k; ++i) {
    const std::string x = names[i % n];
    const std::string y = names[(i + 1 + i / n) % n];
    switch (i % 8) {
      case 0: out.push_back("/" + x); break;
      case 1: out.push_back("//" + y); break;
      case 2: out.push_back("/" + x + "/" + y); break;
      case 3: out.push_back("/" + x + "//" + y); break;
      case 4: out.push_back(x + " then " + y); break;
      case 5: out.push_back("depth >= " + std::to_string(2 + i % 5)); break;
      case 6: out.push_back("//" + x + "/*/" + y); break;
      default: out.push_back("not //" + x); break;
    }
  }
  return out;
}

struct BankWorkload {
  Alphabet alphabet;
  Symbol other;
  std::vector<Query> queries;
  OptimizedBank optimized;  ///< rewrite+min automata, plus the product
  std::string doc;

  BankWorkload(size_t k, size_t positions) {
    for (const std::string& text : BankQueries(k)) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    // rewrite+min only: the SAME automata feed both engines, and the
    // benchmarks that need a product build it themselves (the SoA
    // benchmark should not pay for an unused one).
    OptOptions opt = OptOptions::All();
    opt.bank = false;
    optimized = OptimizeBank(queries, alphabet.size(), opt);
    Alphabet gen;
    for (const char* n : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
      gen.Intern(n);
    }
    Rng rng(7);
    doc = RandomXmlDocument(&rng, gen, positions, 24);
  }
};

size_t RunEngine(const BankWorkload& w, QueryEngine* engine) {
  std::vector<bool> results = engine->RunAll(w.doc, &w.alphabet);
  size_t matched = 0;
  for (bool hit : results) matched += hit;
  return matched;
}

/// Headline: one product step per position vs K SoA steps per position.
void BankThroughputTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-OPT: shared-bank product vs per-query SoA stepping "
          "(rewrite+min automata, one warmed pass each)");
  t.Header({"K", "positions", "soa_ms", "bank_ms", "speedup",
            "product_states", "soa_resident", "bank_resident"});
  const size_t positions = cfg.quick ? 1u << 12 : 1u << 15;
  std::vector<size_t> ks{1, 16, 64};
  if (cfg.quick) ks = {1, 16};
  for (size_t k : ks) {
    BankWorkload w(k, positions);
    QueryEngine soa(w.alphabet.size());
    soa.set_other_symbol(w.other);
    for (const OptimizedQuery& q : w.optimized.queries) soa.Add(&q.nwa);
    std::vector<const Nwa*> autos;
    for (const OptimizedQuery& q : w.optimized.queries) {
      autos.push_back(&q.nwa);
    }
    SharedBank product = CompileBank(autos);
    QueryEngine bank(w.alphabet.size());
    bank.set_other_symbol(w.other);
    bank.AddBank(&product);
    // One warm-up pass: correctness cross-check + memoization of the
    // product transitions a stream of this shape touches (steady state is
    // what a standing query bank serves traffic in).
    size_t m1 = RunEngine(w, &soa);
    size_t m2 = RunEngine(w, &bank);
    NW_CHECK(m1 == m2);
    const int kReps = cfg.quick ? 2 : 8;
    Stopwatch sw;
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(RunEngine(w, &soa));
    }
    double soa_ms = sw.ElapsedMs() / kReps;
    size_t soa_resident = soa.ResidentStates();
    sw.Reset();
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(RunEngine(w, &bank));
    }
    double bank_ms = sw.ElapsedMs() / kReps;
    t.Row({Table::Num(k), Table::Num(positions), Table::Dbl(soa_ms, 2),
           Table::Dbl(bank_ms, 2), Table::Dbl(soa_ms / bank_ms, 2),
           Table::Num(product.num_states()), Table::Num(soa_resident),
           Table::Num(bank.ResidentStates())});
    report->Metric("bank_speedup@k" + std::to_string(k), soa_ms / bank_ms);
    report->Metric("product_states@k" + std::to_string(k),
                   static_cast<double>(product.num_states()));
  }
  if (cfg.print()) t.Print();
}

void BM_SoAEngine(benchmark::State& state) {
  BankWorkload w(static_cast<size_t>(state.range(0)), 1u << 14);
  QueryEngine engine(w.alphabet.size());
  engine.set_other_symbol(w.other);
  for (const OptimizedQuery& q : w.optimized.queries) engine.Add(&q.nwa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunEngine(w, &engine));
  }
  state.SetBytesProcessed(state.iterations() * w.doc.size());
}
BENCHMARK(BM_SoAEngine)->Arg(1)->Arg(16)->Arg(64);

void BM_BankEngine(benchmark::State& state) {
  BankWorkload w(static_cast<size_t>(state.range(0)), 1u << 14);
  std::vector<const Nwa*> autos;
  for (const OptimizedQuery& q : w.optimized.queries) autos.push_back(&q.nwa);
  SharedBank product = CompileBank(autos);
  QueryEngine engine(w.alphabet.size());
  engine.set_other_symbol(w.other);
  engine.AddBank(&product);
  RunEngine(w, &engine);  // warm the memoized product
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunEngine(w, &engine));
  }
  state.SetBytesProcessed(state.iterations() * w.doc.size());
}
BENCHMARK(BM_BankEngine)->Arg(1)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(&argc, argv);
  BenchReport report("bench_query_optimizer");
  MinimizationTable(cfg, &report);
  BankThroughputTable(cfg, &report);
  if (cfg.report_json) {
    std::printf("%s\n", report.ToJson(cfg.quick).c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
