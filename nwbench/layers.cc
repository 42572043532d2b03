// The traced run's per-layer ladder. Every rung times one layer's public
// call on the workload's own documents, each adding one layer to the
// rung below it:
//
//   1 tokenize            XmlTokenStream/JsonTokenStream/TraceTokenStream
//   2 tokenize + step     QueryEngine::RunAll on AddFrozen
//   3 EvaluateCorpus      ShardedEvaluator, one-document corpus
//   4 DaemonCore::Submit  in-process dispatcher queue and promise
//   5 socket SUBMIT       nwqueryd over its Unix socket
//
// so each rung's marginal cost is one layer's cost. The remaining
// metrics time the compile/refresh path (ParseQuery, CompileOptimized,
// OptimizeBank, replay, ExploreAll, Freeze, Admit/Retire) and stats.
#include <time.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "daemon_client.h"
#include "json/json.h"
#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nwbench {

namespace {

using nw::InputFormat;

/// Repetitions per timed call; a doc's rung time is its fastest rep.
constexpr int kReps = 3;
/// Admissions timed in-process: one per admission-pool shape.
constexpr size_t kAdmitProbes = 7;

int64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

template <typename Stream>
size_t TokenizeWith(const std::string& text, nw::Alphabet* alphabet) {
  Stream stream(text, alphabet);
  nw::TaggedSymbol t;
  size_t n = 0;
  while (stream.Next(&t)) ++n;
  return n;
}

size_t Tokenize(const Doc& d, nw::Alphabet* alphabet) {
  switch (d.format) {
    case InputFormat::kXml:
      return TokenizeWith<nw::XmlTokenStream>(d.text, alphabet);
    case InputFormat::kJson:
      return TokenizeWith<nw::JsonTokenStream>(d.text, alphabet);
    case InputFormat::kTrace:
      return TokenizeWith<nw::TraceTokenStream>(d.text, alphabet);
  }
  return 0;
}

nw::NestedWord ToNestedWord(const Doc& d, nw::Alphabet* alphabet) {
  switch (d.format) {
    case InputFormat::kJson:
      return nw::JsonToNestedWord(d.text, alphabet);
    case InputFormat::kTrace:
      return nw::TraceToNestedWord(d.text, alphabet);
    default:
      return nw::XmlToNestedWord(d.text, alphabet);
  }
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Median over documents of per-document fastest-of-kReps times.
struct PerDoc {
  std::vector<int64_t> best;
  explicit PerDoc(size_t n) : best(n, INT64_MAX) {}
  void Add(size_t i, int64_t ns) { best[i] = std::min(best[i], ns); }
  double MedianUs() const {
    std::vector<double> us;
    for (int64_t b : best) us.push_back(Us(b));
    return Median(us);
  }
};

}  // namespace

LayerResult MeasureLayers(const LayerInputs& in, const LayerEnv& env) {
  LayerResult r;
  auto metric = [&r](const char* name, double value, const char* unit) {
    r.metrics.push_back({name, value, unit});
  };
  auto check = [&r](const std::string& mismatch) {
    ++r.attempted;
    if (mismatch.empty()) return;
    ++r.failed;
    if (r.failure.empty()) r.failure = mismatch;
  };
  SpanLog* spans = env.spans;
  const size_t n = in.docs.size();
  Oracle oracle(in.bank);
  std::vector<nw::DocResult> expected;
  size_t doc_positions = 0, doc_bytes = 0;
  for (const Doc& d : in.docs) {
    expected.push_back(oracle.Eval(in.bank, d));
    doc_positions += expected.back().positions;
    doc_bytes += d.text.size();
  }

  // -- the served snapshot, refreshed like the daemon's -----------------
  std::unique_ptr<CompiledBank> served = CompileBank(in.bank);
  {
    ScopedSpan span(spans, "layers.warm_bank");
    nw::QueryEngine warm(served->alphabet.size());
    warm.set_other_symbol(served->other);
    warm.AddBank(served->bank.shared.get());
    nw::Alphabet scratch = served->alphabet;
    for (const Doc& d : in.replay) warm.RunAll(d.text, &scratch, d.format);
    served->bank.shared->ExploreAll(kRefreshCap);
  }
  std::shared_ptr<const nw::FrozenBank> frozen =
      nw::FrozenBank::FreezeShared(*served->bank.shared);
  const size_t num_symbols = served->alphabet.size();

  // -- stream: one tokenizer loop per format, interning included --------
  // The daemon tokenizes each one-document batch into a fresh alphabet
  // copy, so interning here is insert-heavy.
  const char* kStreamNames[] = {"stream.xml_ns_per_pos",
                                "stream.json_ns_per_pos",
                                "stream.trace_ns_per_pos"};
  for (size_t f = 0; f < 3; ++f) {
    ScopedSpan span(spans, "ladder.tokenize");
    int64_t best = INT64_MAX;
    size_t positions = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      int64_t total = 0;
      positions = 0;
      for (const Doc& d : in.by_format[f]) {
        nw::Alphabet fresh = served->alphabet;
        int64_t t0 = NowNs();
        positions += Tokenize(d, &fresh);
        total += NowNs() - t0;
      }
      best = std::min(best, total);
    }
    metric(kStreamNames[f],
           static_cast<double>(best) / static_cast<double>(positions),
           "ns/pos");
  }
  metric("stream.bytes_per_pos",
         static_cast<double>(doc_bytes) / static_cast<double>(doc_positions),
         "B/pos");

  // -- ladder rungs 1-4 on the served documents --------------------------
  // Rungs 2-4 step the in-process daemon's startup snapshot (and rung 5 a
  // nwqueryd started the same way), so each marginal is one layer's cost,
  // not the difference between two snapshots' coverage.
  nw::DaemonOptions options;
  options.threads = in.threads;
  options.refresh_cap = kRefreshCap;
  auto core = std::make_unique<nw::DaemonCore>(in.bank, options);
  core->Start();
  const std::shared_ptr<const nw::DaemonEpoch> epoch = core->current_epoch();
  const nw::FrozenBank* startup = epoch->frozen.get();
  const nw::Symbol startup_other = epoch->alphabet.Find("%other");
  // Single-document corpora, built outside the timed calls.
  std::vector<std::vector<std::string>> singles;
  for (const Doc& d : in.docs) singles.push_back({d.text});
  PerDoc rung1(n), rung2(n), rung3(n), rung4(n), overhead(n), dispatch(n);
  std::vector<double> submit_us;
  {
    nw::ShardedEvaluator evaluator(startup, epoch->num_symbols, startup_other,
                                   in.threads);
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < n; ++i) {
        const Doc& d = in.docs[i];
        nw::Alphabet a1 = epoch->alphabet;
        int64_t t0 = NowNs();
        {
          ScopedSpan span(spans, "ladder.tokenize");
          Tokenize(d, &a1);
        }
        int64_t t1 = NowNs();
        nw::Alphabet a2 = epoch->alphabet;
        nw::OverflowBank overflow(startup);
        nw::QueryEngine engine(epoch->num_symbols);
        engine.set_other_symbol(startup_other);
        engine.set_track_matches(true);
        engine.AddFrozen(startup, &overflow);
        nw::DocResult step;
        int64_t t2 = NowNs();
        {
          ScopedSpan span(spans, "ladder.tokenize_step");
          step.accept = engine.RunAll(d.text, &a2, d.format);
        }
        int64_t t3 = NowNs();
        step.positions = engine.positions();
        for (size_t q = 0; q < engine.num_queries(); ++q) {
          step.first_match.push_back(engine.first_match(q));
        }
        evaluator.set_format(d.format);
        std::vector<nw::DocResult> one;
        int64_t t4 = NowNs();
        {
          ScopedSpan span(spans, "ladder.evaluate_corpus");
          one = evaluator.EvaluateCorpus(singles[i], epoch->alphabet, true);
        }
        int64_t t5 = NowNs();
        nw::Result<nw::SubmitOutcome> submitted = [&] {
          ScopedSpan span(spans, "ladder.daemon_submit");
          return core->Submit(d.text, d.format);
        }();
        int64_t t6 = NowNs();
        rung1.Add(i, t1 - t0);
        rung2.Add(i, t3 - t2);
        rung3.Add(i, t5 - t4);
        rung4.Add(i, t6 - t5);
        submit_us.push_back(Us(t6 - t5));
        if (!submitted.ok()) {
          check("Submit failed: " + submitted.status().message());
        } else if (rep == 0) {
          check(CompareResult(expected[i], step));
          check(CompareResult(expected[i], one[0]));
          check(CompareResult(expected[i], submitted->result));
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      overhead.best[i] = rung3.best[i] - rung2.best[i];
      dispatch.best[i] = rung4.best[i] - rung3.best[i];
    }
    r.tokenize_us = rung1.MedianUs();
    r.step_us = rung2.MedianUs() - rung1.MedianUs();
  }

  // -- query: stepping pre-tokenized words, latch on and off -------------
  {
    std::vector<nw::NestedWord> words;
    size_t positions = 0;
    for (const Doc& d : in.docs) {
      nw::Alphabet a = served->alphabet;
      words.push_back(ToNestedWord(d, &a));
    }
    int64_t best[2] = {INT64_MAX, INT64_MAX};
    for (int rep = 0; rep < kReps; ++rep) {
      for (int track = 1; track >= 0; --track) {
        ScopedSpan span(spans, track ? "query.step_latch" : "query.step");
        nw::OverflowBank overflow(frozen.get());
        nw::QueryEngine engine(num_symbols);
        engine.set_other_symbol(served->other);
        engine.set_track_matches(track == 1);
        engine.AddFrozen(frozen.get(), &overflow);
        int64_t t0 = NowNs();
        for (const nw::NestedWord& w : words) engine.RunAll(w);
        best[track] = std::min(best[track], NowNs() - t0);
        positions = engine.positions();
      }
    }
    const double pos = static_cast<double>(positions);
    metric("query.step_ns_per_pos", static_cast<double>(best[1]) / pos,
           "ns/pos");
    metric("query.latch_ns_per_pos",
           static_cast<double>(best[1] - best[0]) / pos, "ns/pos");
  }

  // -- query + opt: per admitted query, and the whole admitted set --------
  const size_t probes = std::min(kAdmitProbes, in.pool.size());
  {
    ScopedSpan span(spans, "opt.compile_path");
    std::vector<double> parse_us, compile_ms, bank_ms;
    for (size_t p = 0; p < probes; ++p) {
      constexpr int kParseReps = 200;
      int64_t t0 = NowNs();
      for (int rep = 0; rep < kParseReps; ++rep) {
        nw::Alphabet a = served->alphabet;
        nw::ParseQuery(in.pool[p], &a);
      }
      parse_us.push_back(Us(NowNs() - t0) / kParseReps);
      nw::Alphabet a = served->alphabet;
      nw::Query q = nw::ParseQuery(in.pool[p], &a).Take();
      t0 = NowNs();
      nw::CompileOptimized(q, num_symbols, nw::OptOptions::All());
      compile_ms.push_back(Ms(NowNs() - t0));
      std::vector<nw::Query> set = served->queries;
      set.push_back(q);
      t0 = NowNs();
      nw::OptimizeBank(set, num_symbols, nw::OptOptions::All());
      bank_ms.push_back(Ms(NowNs() - t0));
    }
    metric("query.parse_us", Median(parse_us), "us");
    metric("opt.compile_ms", Median(compile_ms), "ms");
    metric("opt.bank_ms", Median(bank_ms), "ms");
    metric("opt.states_final",
           static_cast<double>(served->bank.states_final()), "states");
  }

  // -- opt + serve: one refresh, stage by stage ---------------------------
  {
    std::vector<double> replay_ns, replay_ms, explore_ms, states, freeze_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(spans, "opt.refresh");
      std::unique_ptr<CompiledBank> c = CompileBank(in.bank);
      nw::QueryEngine engine(c->alphabet.size());
      engine.set_other_symbol(c->other);
      engine.AddBank(c->bank.shared.get());
      nw::Alphabet scratch = c->alphabet;
      int64_t t0 = NowNs();
      for (const Doc& d : in.replay) engine.RunAll(d.text, &scratch, d.format);
      int64_t t1 = NowNs();
      c->bank.shared->ExploreAll(kRefreshCap);
      int64_t t2 = NowNs();
      nw::FrozenBank f = nw::FrozenBank::Freeze(*c->bank.shared);
      int64_t t3 = NowNs();
      replay_ns.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(engine.positions()));
      replay_ms.push_back(Ms(t1 - t0));
      explore_ms.push_back(Ms(t2 - t1));
      states.push_back(static_cast<double>(c->bank.shared->num_states()));
      freeze_ms.push_back(Ms(t3 - t2));
    }
    metric("opt.replay_ns_per_pos", Median(replay_ns), "ns/pos");
    metric("opt.explore_ms", Median(explore_ms), "ms");
    metric("opt.product_states", Median(states), "states");
    metric("serve.freeze_ms", Median(freeze_ms), "ms");
    r.replay_ms = Median(replay_ms);
  }

  // -- serve: per-call overhead, coverage, 1-worker and cold passes -------
  metric("serve.call_overhead_us", overhead.MedianUs(), "us");
  {
    std::vector<std::string> texts[3];
    for (const Doc& d : in.docs) {
      texts[static_cast<size_t>(d.format)].push_back(d.text);
    }
    // One EvaluateCorpus per format present, as the daemon batches.
    auto pass = [&](const nw::FrozenBank* snapshot, size_t threads,
                    size_t* positions, size_t* hits, size_t* steps) {
      nw::ShardedEvaluator evaluator(snapshot, snapshot->num_symbols(),
                                     served->other, threads);
      *positions = *hits = *steps = 0;
      int64_t t0 = NowNs();
      for (size_t f = 0; f < 3; ++f) {
        if (texts[f].empty()) continue;
        evaluator.set_format(static_cast<InputFormat>(f));
        evaluator.EvaluateCorpus(texts[f], served->alphabet, true);
        *positions += evaluator.stats().positions;
        *hits += evaluator.stats().frozen_hits;
        *steps += evaluator.stats().frozen_hits +
                  evaluator.stats().frozen_misses;
      }
      return NowNs() - t0;
    };
    size_t positions = 0, hits = 0, steps = 0;
    {
      ScopedSpan span(spans, "serve.pass");
      pass(frozen.get(), in.threads, &positions, &hits, &steps);
    }
    metric("serve.hit_rate",
           static_cast<double>(hits) / static_cast<double>(steps), "ratio");
    metric("serve.steps", static_cast<double>(steps), "count");
    int64_t best = INT64_MAX;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(spans, "serve.pass_t1");
      best = std::min(best, pass(frozen.get(), 1, &positions, &hits, &steps));
    }
    metric("serve.t1_mpos_s",
           static_cast<double>(positions) / (static_cast<double>(best) / 1e9) /
               1e6,
           "Mpos/s");
    std::unique_ptr<CompiledBank> cold_bank = CompileBank(in.bank);
    std::shared_ptr<const nw::FrozenBank> cold =
        nw::FrozenBank::FreezeShared(*cold_bank->bank.shared);
    best = INT64_MAX;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(spans, "serve.pass_cold");
      best = std::min(best, pass(cold.get(), 1, &positions, &hits, &steps));
    }
    metric("serve.overflow_ns_per_pos",
           static_cast<double>(best) / static_cast<double>(positions),
           "ns/pos");
  }

  // -- daemon: protocol decode, in-process core, socket -------------------
  std::vector<std::string> lines;
  for (const Doc& d : in.docs) {
    lines.push_back("{\"op\":\"SUBMIT\",\"doc\":" + JsonQuote(d.text) +
                    ",\"format\":\"" + nw::InputFormatName(d.format) + "\"}");
  }
  {
    ScopedSpan span(spans, "daemon.protocol");
    int64_t best = INT64_MAX;
    size_t bytes = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      bytes = 0;
      int64_t t0 = NowNs();
      for (const std::string& line : lines) {
        bytes += line.size();
        if (!nw::ParseDaemonRequest(line).ok()) {
          check("ParseDaemonRequest refused a SUBMIT line");
        }
      }
      best = std::min(best, NowNs() - t0);
    }
    metric("daemon.protocol_us_per_kb",
           Us(best) / (static_cast<double>(bytes) / 1024.0), "us/KB");
    // The share's base is the same line bytes the rate is taken over.
    r.request_kb = static_cast<double>(bytes) / 1024.0 / static_cast<double>(n);
  }
  std::vector<double> admit_ms, retire_ms, refresh_ms;
  {
    // Admit/Retire, warmth seen through current_epoch() alone: an epoch
    // no older than the one Admit published, tagged refreshed.
    auto wait_warm = [&](uint64_t epoch_id) {
      ScopedSpan span(spans, "daemon.refresh_wait");
      for (int64_t t0 = NowNs(); NowNs() - t0 < 60LL * 1000000000;) {
        std::shared_ptr<const nw::DaemonEpoch> e = core->current_epoch();
        if (e->refreshed && e->id >= epoch_id) return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      check("in-process daemon did not refresh within 60 s");
      return false;
    };
    for (size_t p = 0; p < probes; ++p) {
      int64_t t0 = NowNs();
      nw::Result<uint64_t> qid = [&] {
        ScopedSpan span(spans, "daemon.admit");
        return core->Admit(in.pool[p]);
      }();
      int64_t t1 = NowNs();
      uint64_t published = core->current_epoch()->id;
      check(qid.ok() ? "" : "Admit failed: " + qid.status().message());
      if (!qid.ok() || !wait_warm(published)) break;
      int64_t t2 = NowNs();
      nw::Status retired = [&] {
        ScopedSpan span(spans, "daemon.retire");
        return core->Retire(*qid);
      }();
      int64_t t3 = NowNs();
      check(retired.ok() ? "" : "Retire failed: " + retired.message());
      if (!retired.ok() || !wait_warm(core->current_epoch()->id)) break;
      admit_ms.push_back(Ms(t1 - t0));
      refresh_ms.push_back(Ms(t2 - t1));
      retire_ms.push_back(Ms(t3 - t2));
    }
    core.reset();
  }
  metric("daemon.submit_p50_us", Median(submit_us), "us");
  metric("daemon.dispatch_us", dispatch.MedianUs(), "us");

  PerDoc rung5(n);
  std::vector<double> socket_us;
  {
    std::string error;
    {
      std::ofstream qf(env.query_file);
      for (const std::string& q : in.bank) qf << q << "\n";
    }
    auto daemon = DaemonProcess::Spawn(
        env.nwqueryd, env.socket_path, env.query_file,
        {"--threads", std::to_string(in.threads), "--refresh-cap",
         std::to_string(kRefreshCap)},
        env.log_path, &error);
    std::unique_ptr<Connection> conn;
    if (daemon != nullptr) conn = Connection::Open(env.socket_path, &error);
    if (conn == nullptr) check(error);
    std::string resp;
    nw::DocResult got;
    for (int rep = 0; conn != nullptr && rep < kReps; ++rep) {
      for (size_t i = 0; i < n; ++i) {
        int64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(spans, "ladder.socket_submit");
          ok = conn->RoundTrip(lines[i] + "\n", &resp);
        }
        int64_t rtt = NowNs() - t0;
        uint64_t latency_us = 0;
        if (!ok || !ParseSubmitResponse(resp, &got) ||
            !ResponseUint(resp, "latency_us", &latency_us)) {
          check("socket SUBMIT failed: " + resp.substr(0, 160));
          continue;
        }
        rung5.Add(i, rtt);
        socket_us.push_back(Us(rtt) - static_cast<double>(latency_us));
        if (rep == 0) check(CompareResult(expected[i], got));
      }
    }
    if (conn != nullptr) {
      conn->RoundTrip("{\"op\":\"SHUTDOWN\"}\n", &resp);
      conn.reset();
    }
    if (daemon != nullptr) {
      int code = daemon->WaitExit();
      check(code == 0 ? "" : "nwqueryd exited with " + std::to_string(code));
    }
  }
  metric("daemon.socket_us", Median(socket_us), "us");
  metric("daemon.admit_ms", Median(admit_ms), "ms");
  metric("daemon.retire_ms", Median(retire_ms), "ms");
  metric("daemon.refresh_ms", Median(refresh_ms), "ms");

  // -- obs: CPU cost of the always-on stats sinks -------------------------
  {
    ScopedSpan span(spans, "obs.stats_ratio");
    std::vector<std::string> texts;
    for (const Doc& d : in.by_format[0]) texts.push_back(d.text);
    nw::ShardedEvaluator plain(frozen.get(), num_symbols, served->other,
                               in.threads);
    nw::ShardedEvaluator with_stats(frozen.get(), num_symbols,
                                    served->other, in.threads);
    nw::StatsRegistry registry;
    with_stats.AttachStats(&registry);
    int64_t best[2] = {INT64_MAX, INT64_MAX};
    for (int rep = 0; rep < 5; ++rep) {
      for (int stats = 0; stats < 2; ++stats) {
        nw::ShardedEvaluator& ev = stats ? with_stats : plain;
        int64_t t0 = ProcessCpuNs();
        ev.EvaluateCorpus(texts, served->alphabet, true);
        best[stats] = std::min(best[stats], ProcessCpuNs() - t0);
      }
    }
    metric("obs.stats_cpu_ratio",
           static_cast<double>(best[1]) / static_cast<double>(best[0]),
           "ratio");
  }

  // -- the ladder table ---------------------------------------------------
  char line[200];
  r.lines.push_back("ladder (median over " + std::to_string(n) +
                    " documents of each document's fastest of " +
                    std::to_string(kReps) + " reps):");
  struct Rung {
    const char* name;
    const char* layer;
    double us;
  };
  const Rung rungs[] = {
      {"1 tokenize", "stream", rung1.MedianUs()},
      {"2 tokenize+step", "query", rung2.MedianUs()},
      {"3 EvaluateCorpus", "serve", rung3.MedianUs()},
      {"4 DaemonCore::Submit", "daemon dispatch", rung4.MedianUs()},
      {"5 socket SUBMIT", "daemon protocol+socket", rung5.MedianUs()},
  };
  double below = 0;
  for (const Rung& g : rungs) {
    std::snprintf(line, sizeof(line),
                  "  rung %-22s %10.1f us/doc  marginal %10.1f us  (%s)",
                  g.name, g.us, g.us - below, g.layer);
    r.lines.push_back(line);
    below = g.us;
  }
  return r;
}

}  // namespace nwbench
