// E-SERVE — the parallel serving layer's headline claim: a frozen,
// immutable shared-bank snapshot lets N threads stream N documents
// concurrently with zero synchronization on the hot path, so aggregate
// corpus throughput scales with cores (acceptance bar: ≥3× at 8 threads
// vs 1 on ≥64 documents with a K=16 bank — asserted only when the host
// actually has ≥8 hardware threads; the table reports the machine).
//
// The frozen-bank hit rate is reported per configuration: the bank is
// trained by streaming the corpus once single-threaded (the steady state
// a standing query bank serves traffic in), so hits are the norm and the
// shard banks' overflow steps are the exception — the cold-bank row shows
// what serving looks like before any training.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.h"
#include "opt/bank.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "xml/xml.h"

namespace {

using namespace nw;

/// Query templates instantiated over rotating element names (same family
/// as bench_query_optimizer) to build a K-query bank.
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

struct ServeWorkload {
  Alphabet alphabet;
  Symbol other = Alphabet::kNoSymbol;
  std::vector<Query> queries;
  OptimizedBank bank;  ///< rewrite+min automata plus the shared product
  std::vector<std::string> corpus;
  size_t corpus_bytes = 0;

  ServeWorkload(size_t k, size_t docs, size_t positions_per_doc) {
    for (const std::string& text : BankQueries(k)) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    bank = OptimizeBank(queries, alphabet.size(), OptOptions::All());
    Alphabet gen;
    for (const char* n : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
      gen.Intern(n);
    }
    Rng rng(11);
    for (size_t d = 0; d < docs; ++d) {
      corpus.push_back(
          RandomXmlDocument(&rng, gen, positions_per_doc, 16));
      corpus_bytes += corpus.back().size();
    }
  }

  /// Trains the shared product by streaming the corpus once (steady
  /// state: a standing bank has long since seen its traffic's shapes).
  void Train() {
    QueryEngine trainer(alphabet.size());
    trainer.set_other_symbol(other);
    trainer.AddBank(bank.shared.get());
    for (const std::string& doc : corpus) trainer.RunAll(doc, &alphabet);
  }
};

/// One timed sharded pass; returns positions/ms and fills the stats.
double TimedPass(ServeWorkload* w, const FrozenBank* frozen, size_t threads,
                 ServeStats* stats_out, bool quick) {
  ShardedEvaluator evaluator(frozen, w->alphabet.size(), w->other, threads);
  const int kReps = quick ? 1 : 4;
  // One untimed rep first: workers and their banks are constructed
  // fresh inside every EvaluateCorpus call, so this warms only the
  // allocator and CPU caches — the timed reps pay the same per-call
  // setup the production path would.
  evaluator.EvaluateCorpus(w->corpus, w->alphabet, false);
  Stopwatch sw;
  for (int i = 0; i < kReps; ++i) {
    benchmark::DoNotOptimize(
        evaluator.EvaluateCorpus(w->corpus, w->alphabet, false));
  }
  double ms = sw.ElapsedMs() / kReps;
  *stats_out = evaluator.stats();
  return static_cast<double>(stats_out->positions) / ms;
}

/// Headline table: aggregate corpus throughput vs thread count.
void ScalingTable(const BenchConfig& cfg, BenchReport* report) {
  const size_t kQueries = 16;
  const size_t kDocs = cfg.quick ? 16 : 64;
  const size_t kPositions = cfg.quick ? 1u << 10 : 1u << 12;
  ServeWorkload w(kQueries, kDocs, kPositions);
  w.Train();
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  Table t("E-SERVE: sharded corpus throughput over a corpus-trained "
          "frozen bank (K=" + std::to_string(kQueries) + ", " +
          std::to_string(kDocs) + " docs, hw_threads=" +
          std::to_string(std::thread::hardware_concurrency()) + ")");
  t.Header({"threads", "corpus_ms", "kpos_per_s", "speedup", "hit_rate",
            "frozen_states"});
  double base_pos_per_ms = 0;
  double speedup_at_8 = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ServeStats stats;
    double pos_per_ms = TimedPass(&w, &frozen, threads, &stats, cfg.quick);
    if (threads == 1) base_pos_per_ms = pos_per_ms;
    double speedup = pos_per_ms / base_pos_per_ms;
    if (threads == 8) speedup_at_8 = speedup;
    t.Row({Table::Num(threads),
           Table::Dbl(static_cast<double>(stats.positions) / pos_per_ms, 1),
           Table::Dbl(pos_per_ms, 1), Table::Dbl(speedup, 2),
           Table::Dbl(stats.hit_rate(), 4),
           Table::Num(frozen.num_states())});
    report->Metric("speedup@t" + std::to_string(threads), speedup);
    report->Metric("hit_rate@t" + std::to_string(threads), stats.hit_rate());
  }
  if (cfg.print()) t.Print();
  // The acceptance bar is a statement about parallel hardware; on a
  // smaller host (or a quick run, whose workload is below the scaling
  // regime) the table above is still the honest report.
  if (!cfg.quick && std::thread::hardware_concurrency() >= 8) {
    NW_CHECK(speedup_at_8 >= 3.0);
  } else if (cfg.print()) {
    std::printf("(speedup bar not asserted: quick=%d, host has %u hardware "
                "threads)\n",
                cfg.quick ? 1 : 0, std::thread::hardware_concurrency());
  }
}

/// Cold vs trained: what the overflow path costs before training.
void ColdVsTrainedTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-SERVE: frozen-bank coverage — cold (untrained) snapshot vs "
          "corpus-trained snapshot, 8 threads");
  t.Header({"snapshot", "kpos_per_s", "hit_rate", "overflow_steps"});
  const size_t kDocs = cfg.quick ? 16 : 64;
  const size_t kPositions = cfg.quick ? 1u << 10 : 1u << 12;
  {
    ServeWorkload cold(16, kDocs, kPositions);
    FrozenBank frozen = FrozenBank::Freeze(*cold.bank.shared);
    ServeStats stats;
    double pos_per_ms = TimedPass(&cold, &frozen, 8, &stats, cfg.quick);
    t.Row({"cold", Table::Dbl(pos_per_ms, 1),
           Table::Dbl(stats.hit_rate(), 4),
           Table::Num(stats.frozen_misses)});
    report->Metric("cold_hit_rate", stats.hit_rate());
  }
  {
    ServeWorkload trained(16, kDocs, kPositions);
    trained.Train();
    FrozenBank frozen = FrozenBank::Freeze(*trained.bank.shared);
    ServeStats stats;
    double pos_per_ms = TimedPass(&trained, &frozen, 8, &stats, cfg.quick);
    t.Row({"trained", Table::Dbl(pos_per_ms, 1),
           Table::Dbl(stats.hit_rate(), 4),
           Table::Num(stats.frozen_misses)});
    report->Metric("trained_hit_rate", stats.hit_rate());
  }
  if (cfg.print()) t.Print();
}

void BM_ShardedCorpus(benchmark::State& state) {
  static ServeWorkload* w = [] {
    auto* workload = new ServeWorkload(16, 64, 1u << 11);
    workload->Train();
    return workload;
  }();
  static FrozenBank frozen = FrozenBank::Freeze(*w->bank.shared);
  size_t threads = static_cast<size_t>(state.range(0));
  ShardedEvaluator evaluator(&frozen, w->alphabet.size(), w->other, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator.EvaluateCorpus(w->corpus, w->alphabet, false));
  }
  state.SetBytesProcessed(state.iterations() * w->corpus_bytes);
}
BENCHMARK(BM_ShardedCorpus)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(&argc, argv);
  BenchReport report("bench_sharded_eval");
  ScalingTable(cfg, &report);
  ColdVsTrainedTable(cfg, &report);
  if (cfg.report_json) {
    std::printf("%s\n", report.ToJson(cfg.quick).c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
