// nwbench: runs one workload against nwqueryd over its Unix socket,
// checks every output against the single-stream oracle, and prints the
// end-to-end metrics, or with --trace 1 the per-layer ladder, which also
// times the in-process layers below the daemon. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}.
//
//   nwbench --workload serve|churn --seed N --seconds S --trace 0|1
//           --nwqueryd PATH --out-dir DIR [--corrupt-expectation]
//
// nwbench/README.md describes the workloads, metrics and steadiness rules.
#include <sched.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "daemon_client.h"
#include "inputs.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "spans.h"

namespace nwbench {

namespace {

using nw::InputFormat;

/// Second seed, held out: later claims are checked on it after being
/// tuned on others (README.md).
constexpr uint64_t kHeldOutSeed = 20070611;
/// Each run pauses its timed traffic kPauses times, spread evenly over
/// the run. In every pause one more nwqueryd is spawned and timed to its
/// ready line; serve also runs its ADMIT/RETIRE probes there. setup_s is
/// the fastest of these spawns and the serving one. The host's speed
/// shifts for seconds at a time, so the more moments these samples come
/// from, the less their medians depend on when the slow spells fell:
/// with 14 pauses serve's warm_p50_ms spread 0.32 over ten seeds while
/// its latency_p50_ms, sampled all through the run, spread 0.12.
constexpr size_t kPauses = 42;
/// Every timing metric but setup_s is taken from the run's best stretch:
/// the smallest of the stretches' medians, the largest of their rates. A
/// stretch is a fixed share of the workload: in serve, kPauses /
/// kServeStretches traffic segments and the probes in the pauses after
/// them; in churn, kChurnStretchCycles cycles, and for admit_p50_ms one
/// whole pass over the admission pool, so that each of its stretches
/// admits every pool query once. Within one run the host slowed the same
/// work by up to 40% for seconds at a time, so a median over the whole run
/// rose with the share of the run such spells took: churn's warm_p50_ms
/// spread 0.19 over five seeds as a median of all samples and 0.03 as the
/// best of 14-cycle stretches. Shorter stretches more often fall wholly
/// between two slow spells; admit_p50_ms over stretches of 14 cycles
/// followed which pool queries the best stretch held (spread 0.20).
constexpr size_t kServeStretches = 14;
constexpr size_t kChurnStretchCycles = 14;
/// ADMIT/RETIRE probes of the serve workload, kServeProbes / kPauses per
/// pause (six in each stretch), every one admitting pool query
/// kServeProbeQuery, an `a and not b` (about 35 ms to compile). Compile
/// costs differ up to fivefold between pool queries and form clusters;
/// over several queries the median fell between two clusters and swung
/// from run to run (spread 0.28 over ten seeds with 42 distinct queries,
/// 0.25 with six repeats of seven). A single cheap query fared worse
/// (0.37): on one CPU the refresher woken at the end of an ADMIT takes the
/// CPU for one scheduler slice, about 4 ms, before the reply goes out in
/// some ADMITs and not in others, which doubles a 5 ms ADMIT but adds a
/// tenth to this one.
constexpr size_t kServeProbes = 84;
constexpr size_t kServeProbeQuery = 4;
/// Admission pool size. churn cycles through the whole pool, about fifteen
/// times in a 40 s run, and each pass is three whole stretches.
constexpr size_t kPoolSize = 42;
static_assert(kPoolSize % kChurnStretchCycles == 0);
constexpr size_t kChurnDocsPerCycle = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string nwqueryd;
  std::string out_dir;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--corrupt-expectation") {
      a->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--nwqueryd") {
      a->nwqueryd = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return (a->workload == "serve" || a->workload == "churn") &&
         !a->nwqueryd.empty() && !a->out_dir.empty();
}

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

/// Spin-loop iterations per second summed over `threads` threads (best of
/// three). A host whose cores are shared reaches less than `threads` times
/// the one-thread rate; that ratio is the effective parallelism.
double SpinRate(unsigned threads) {
  constexpr uint64_t kIters = 20000000;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<uint64_t> sink{0};
    int64_t t0 = NowNs();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t] {
        uint64_t x = 88172645463325252ull + t;
        for (uint64_t i = 0; i < kIters; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink.fetch_add(x, std::memory_order_relaxed);
      });
    }
    for (std::thread& th : pool) th.join();
    double rate = static_cast<double>(threads * kIters) /
                  (static_cast<double>(NowNs() - t0) / 1e9);
    best = std::max(best, rate);
  }
  return best;
}

std::string HostJson() {
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double base = SpinRate(1);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%u,\"effective_parallelism\":{\"t1\":1.0,"
                "\"t2\":%.3f,\"tnproc\":%.3f},\"compiler\":\"%s\","
                "\"build_type\":\"%s\"}",
                nproc, SpinRate(2) / base, SpinRate(nproc) / base,
                NWBENCH_COMPILER, NWBENCH_BUILD_TYPE);
  return buf;
}

/// Confines this process, its later threads and its children (nwqueryd)
/// to the highest-numbered CPU it may use, and returns that CPU (-1 when
/// the affinity cannot be read or set). On a host whose effective
/// parallelism is about one, a wake-up that crosses CPUs costs more than
/// a small request and varies with the host's load; on one CPU every
/// hand-off is a plain context switch. The daemon's threads and the
/// clients then time-slice, so serve measures per-request CPU cost, not
/// concurrent serving (README.md, steadiness rule 5).
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

nw::Rng Stream(uint64_t seed, uint64_t id) {
  return nw::Rng(seed * 0x9e3779b97f4a7c15ULL + id * 0x632be59bd9b4e019ULL);
}

struct Inputs {
  std::vector<std::string> bank;
  std::vector<std::string> pool;
  size_t threads = 1;
  /// serve: the request pool; churn: the documents SUBMITted in cycles,
  /// four per cycle.
  std::vector<Doc> timed;
  /// The 64 documents that fill the daemon's replay reservoir before
  /// anything is timed (serve: the last 64 requests).
  std::vector<Doc> replay;
  LayerInputs layers;
};

/// `count` documents from one Rng stream; `size(rng)` draws each size
/// and `format(i)` picks each format. Calling again with another format
/// function and a fresh copy of the stream yields the same trees.
template <typename SizeFn, typename FormatFn>
std::vector<Doc> MakeDocs(nw::Rng rng, const Vocabulary& vocab, size_t count,
                          size_t max_depth, SizeFn size, FormatFn format) {
  std::vector<Doc> out;
  for (size_t i = 0; i < count; ++i) {
    size_t positions = size(&rng);
    out.push_back(GenerateDoc(&rng, vocab, positions, max_depth, format(i)));
  }
  return out;
}

Inputs MakeInputs(const std::string& workload, uint64_t seed) {
  Vocabulary vocab(seed, 300);
  std::vector<std::string> names = vocab.BankNames();
  Inputs in;
  size_t ladder_docs = 0;
  const size_t max_depth = 10;
  std::function<size_t(nw::Rng*)> size;
  std::function<InputFormat(size_t)> format = [](size_t) {
    return InputFormat::kXml;
  };
  if (workload == "serve") {
    in.bank = BankQueries(names, 16);
    in.threads = 2;
    size = [](nw::Rng* r) { return 1024 + r->Below(3073); };
    format = [](size_t i) {
      const InputFormat kTurn[] = {InputFormat::kXml, InputFormat::kJson,
                                   InputFormat::kTrace};
      return kTurn[i % 3];
    };
    in.timed = MakeDocs(Stream(seed, 1), vocab, 192, max_depth, size, format);
    in.replay.assign(in.timed.end() - 64, in.timed.end());
    ladder_docs = 48;
  } else {
    in.bank = BankQueries(names, 8);
    in.threads = 1;
    size = [](nw::Rng*) { return size_t{2048}; };
    in.timed = MakeDocs(Stream(seed, 1), vocab, 4 * 128, max_depth, size,
                        format);
    in.replay = MakeDocs(Stream(seed, 2), vocab, 64, max_depth, size, format);
    ladder_docs = 16;
  }
  // Admissions use only names the standing bank already interned, so the
  // daemon's symbol space stays fixed across cycles.
  nw::Alphabet bank_names;
  for (const std::string& q : in.bank) nw::ParseQuery(q, &bank_names);
  std::vector<std::string> pool_names;
  for (size_t s = 0; s < bank_names.size(); ++s) {
    pool_names.push_back(bank_names.Name(static_cast<nw::Symbol>(s)));
  }
  in.pool = AdmissionPool(pool_names, kPoolSize);
  LayerInputs& l = in.layers;
  l.bank = in.bank;
  l.pool = in.pool;
  l.threads = in.threads;
  l.docs.assign(in.timed.begin(), in.timed.begin() + ladder_docs);
  const InputFormat kAll[] = {InputFormat::kXml, InputFormat::kJson,
                              InputFormat::kTrace};
  for (size_t f = 0; f < 3; ++f) {
    l.by_format[f] =
        MakeDocs(Stream(seed, 1), vocab, ladder_docs, max_depth, size,
                 [&](size_t) { return kAll[f]; });
  }
  l.replay = in.replay;
  return in;
}

// ---------------------------------------------------------------------------
// End-to-end measurement
// ---------------------------------------------------------------------------

/// One timing and the stretch of the run it was taken in.
struct Sample {
  size_t stretch;
  double value;
};

/// A piece of timed work: its stretch, how long it took, and the
/// positions and requests it completed.
struct Work {
  size_t stretch;
  double seconds;
  size_t positions;
  size_t requests;
};

/// Raw samples of one timed window.
struct E2E {
  /// nwqueryd spawn -> ready line, one sample per spawn.
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  std::vector<Sample> latency_ms;
  std::vector<Sample> admit_ms;
  std::vector<Sample> warm_ms;
  /// The work throughput_rps counts requests of (serve: traffic segments;
  /// churn: cycles, without the pauses between them) and the work
  /// throughput_mpos_s counts positions of (serve: the same segments;
  /// churn: SUBMIT round trips).
  std::vector<Work> traffic;
  std::vector<Work> streaming;
  /// Stretches from this one on are left out of the metrics: churn's
  /// unfinished last pass over the pool.
  size_t stretch_limit = SIZE_MAX;
  /// admit_p50_ms joins this many consecutive stretches into one.
  size_t admit_stretches = 1;
  size_t attempted = 0;
  size_t failed = 0;
  std::string failure;

  void Fail(const std::string& why) {
    ++failed;
    if (failure.empty()) failure = why;
  }
  /// Counts one checked operation; a non-empty `mismatch` fails it.
  void Check(const std::string& mismatch) {
    ++attempted;
    if (!mismatch.empty()) Fail(mismatch);
  }
};

std::vector<double> Values(const std::vector<Sample>& v) {
  std::vector<double> out;
  for (const Sample& s : v) out.push_back(s.value);
  return out;
}

/// The median of each counted stretch's samples, in stretch order, with
/// every `join` consecutive stretches taken as one.
std::vector<double> StretchMedians(const std::vector<Sample>& v, size_t limit,
                                   size_t join = 1) {
  std::map<size_t, std::vector<double>> by;
  for (const Sample& s : v) {
    if (s.stretch < limit) by[s.stretch / join].push_back(s.value);
  }
  std::vector<double> out;
  for (const auto& [stretch, values] : by) out.push_back(Median(values));
  return out;
}

/// Each counted stretch's rate of `count` per second of work.
std::vector<double> StretchRates(const std::vector<Work>& v,
                                 size_t Work::*count, size_t limit) {
  std::map<size_t, std::pair<double, double>> by;  // count, seconds
  for (const Work& w : v) {
    if (w.stretch >= limit) continue;
    by[w.stretch].first += static_cast<double>(w.*count);
    by[w.stretch].second += w.seconds;
  }
  std::vector<double> out;
  for (const auto& [stretch, done] : by) {
    if (done.second > 0) out.push_back(done.first / done.second);
  }
  return out;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::vector<Metric> EndToEnd(const E2E& e) {
  // Every timing is taken from the run's best stretch (steadiness rule 8):
  // the host's other tenants only ever add time, for seconds at a time,
  // and a change to the program moves every stretch.
  const size_t limit = e.stretch_limit;
  return {
      // The fastest spawn, for the same reason.
      {"setup_s", Percentile(e.setup_s, 0), "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"throughput_mpos_s",
       Max(StretchRates(e.streaming, &Work::positions, limit)) / 1e6,
       "Mpos/s"},
      {"latency_p50_ms", Min(StretchMedians(e.latency_ms, limit)), "ms"},
      {"throughput_rps", Max(StretchRates(e.traffic, &Work::requests, limit)),
       "req/s"},
      {"admit_p50_ms",
       Min(StretchMedians(e.admit_ms, limit, e.admit_stretches)), "ms"},
      {"warm_p50_ms", Min(StretchMedians(e.warm_ms, limit)), "ms"},
  };
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// -- daemon workloads ---------------------------------------------------------

std::string SubmitLine(const Doc& d) {
  return "{\"op\":\"SUBMIT\",\"doc\":" + JsonQuote(d.text) +
         ",\"format\":\"" + nw::InputFormatName(d.format) + "\"}\n";
}

/// One timed request-response. Returns the round trip in ns, or -1 after
/// recording the failure.
int64_t Call(Connection* c, const std::string& line, std::string* resp,
             E2E* e) {
  int64_t t0 = NowNs();
  if (!c->RoundTrip(line, resp)) {
    e->Check("socket error or timeout");
    return -1;
  }
  int64_t rtt = NowNs() - t0;
  if (!ResponseOk(*resp)) {
    e->Check("refused: " + resp->substr(0, 160));
    return -1;
  }
  return rtt;
}

/// Polls STATS until the daemon serves a refreshed epoch no older than
/// `epoch` (steadiness rule 1). Returns ms from `since_ns`, or -1.
double WaitWarm(Connection* c, uint64_t epoch, int64_t since_ns, E2E* e,
                SpanLog* spans) {
  ScopedSpan span(spans, "client.warm_wait");
  static const std::string kStats = "{\"op\":\"STATS\"}\n";
  std::string resp;
  for (;;) {
    if (Call(c, kStats, &resp, e) < 0) return -1;
    ++e->attempted;
    uint64_t now_epoch = 0;
    bool refreshed = false;
    if (!ResponseUint(resp, "epoch", &now_epoch) ||
        !ResponseBool(resp, "refreshed", &refreshed)) {
      e->Fail("malformed STATS response");
      return -1;
    }
    if (refreshed && now_epoch >= epoch) return Ms(NowNs() - since_ns);
    if (NowNs() - since_ns > 60LL * 1000000000) {
      e->Fail("daemon did not refresh within 60 s");
      return -1;
    }
    // Each STATS costs the daemon a registry capture on the one CPU the
    // refresher also runs on; polling every 1 ms keeps that under a tenth
    // of the refresh it waits for, at 1 ms resolution.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// ADMIT `query`, wait warm, RETIRE, wait warm. Records the ADMIT round
/// trip and both warm waits in `stretch`; returns the admitted qid's epoch
/// or false.
bool AdmitCycle(Connection* c, const std::string& query, size_t stretch,
                E2E* e, SpanLog* spans, uint64_t* admit_epoch,
                const std::function<bool(uint64_t)>& while_admitted) {
  std::string resp;
  int64_t rtt;
  {
    ScopedSpan span(spans, "client.admit");
    rtt = Call(c, "{\"op\":\"ADMIT\",\"query\":" + JsonQuote(query) + "}\n",
               &resp, e);
  }
  if (rtt < 0) return false;
  ++e->attempted;
  int64_t answered = NowNs();
  uint64_t qid = 0;
  if (!ResponseUint(resp, "qid", &qid) ||
      !ResponseUint(resp, "epoch", admit_epoch)) {
    e->Fail("malformed ADMIT response");
    return false;
  }
  e->admit_ms.push_back({stretch, Ms(rtt)});
  double warm = WaitWarm(c, *admit_epoch, answered, e, spans);
  if (warm < 0) return false;
  e->warm_ms.push_back({stretch, warm});
  if (!while_admitted(*admit_epoch)) return false;
  {
    ScopedSpan span(spans, "client.retire");
    rtt = Call(c, "{\"op\":\"RETIRE\",\"qid\":" + std::to_string(qid) + "}\n",
               &resp, e);
  }
  if (rtt < 0) return false;
  ++e->attempted;
  answered = NowNs();
  uint64_t retire_epoch = 0;
  if (!ResponseUint(resp, "epoch", &retire_epoch)) {
    e->Fail("malformed RETIRE response");
    return false;
  }
  warm = WaitWarm(c, retire_epoch, answered, e, spans);
  if (warm < 0) return false;
  e->warm_ms.push_back({stretch, warm});
  return true;
}

/// SHUTDOWN over a fresh connection, then the exit code must be 0.
void Shutdown(DaemonProcess* d, E2E* e) {
  std::string error, resp;
  std::unique_ptr<Connection> c = Connection::Open(d->socket_path(), &error);
  if (c == nullptr) {
    e->Check(error);
  } else {
    Call(c.get(), "{\"op\":\"SHUTDOWN\"}\n", &resp, e);
    c.reset();
  }
  int code = d->WaitExit();
  e->Check(code == 0 ? "" : "nwqueryd exited with " + std::to_string(code));
}

/// SUBMITs the workload's replay documents in order from one connection,
/// checking each: the daemon's 64-document replay reservoir then holds
/// exactly these before anything is timed (steadiness rule 3).
void FillReservoir(Connection* c, const Inputs& in, Oracle* oracle, E2E* e) {
  std::string resp;
  nw::DocResult got;
  for (const Doc& d : in.replay) {
    if (Call(c, SubmitLine(d), &resp, e) < 0) return;
    if (!ParseSubmitResponse(resp, &got)) {
      e->Check("malformed SUBMIT response");
      return;
    }
    e->Check(CompareResult(oracle->Eval(in.bank, d), got));
  }
}

/// Where one workload's daemons live; the constructor writes the bank to
/// the query file.
struct DaemonSpec {
  DaemonSpec(const Args& a, const Inputs& in, const std::string& tag)
      : binary(a.nwqueryd),
        query_file(a.out_dir + "/" + tag + ".nwq"),
        socket_path(a.out_dir + "/" + tag + "-" +
                    std::to_string(::getpid()) + ".sock"),
        spare_socket_path(a.out_dir + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-spare.sock"),
        log_path(a.out_dir + "/nwqueryd.log"),
        threads(in.threads) {
    std::ofstream qf(query_file);
    for (const std::string& q : in.bank) qf << q << "\n";
  }

  /// Spawns nwqueryd on `socket` and records spawn → ready line into
  /// `e->setup_s`; null after recording the failure.
  std::unique_ptr<DaemonProcess> Spawn(const std::string& socket,
                                       E2E* e) const {
    std::string error;
    auto d = DaemonProcess::Spawn(
        binary, socket, query_file,
        {"--threads", std::to_string(threads), "--refresh-cap",
         std::to_string(kRefreshCap)},
        log_path, &error);
    if (d == nullptr) {
      e->Check(error);
    } else {
      e->setup_s.push_back(d->ready_seconds());
    }
    return d;
  }

  /// One more timed spawn on a socket of its own, beside the idle
  /// serving daemon; stopped by SIGTERM (which drains at once, where
  /// SHUTDOWN waits out the accept poll) and required to exit 0.
  void TimeSpareSpawn(E2E* e) const {
    std::unique_ptr<DaemonProcess> d = Spawn(spare_socket_path, e);
    if (d == nullptr) return;
    int code = d->Terminate();
    e->Check(code == 0 ? "" : "nwqueryd exited with " + std::to_string(code));
  }

  std::string binary, query_file, socket_path, spare_socket_path, log_path;
  size_t threads;
};

/// Folds set-up samples and counts into every window's result.
void MergeSetup(const E2E& setup, std::vector<E2E>* out) {
  for (E2E& e : *out) {
    e.setup_s = setup.setup_s;
    if (!setup.admit_ms.empty()) e.admit_ms = setup.admit_ms;
    if (!setup.warm_ms.empty()) e.warm_ms = setup.warm_ms;
  }
  E2E& first = out->front();
  first.attempted += setup.attempted;
  first.failed += setup.failed;
  if (first.failure.empty()) first.failure = setup.failure;
}

/// Refills the replay reservoir with the same documents, so every refresh
/// replays them (steadiness rule 3), then runs `probes` ADMIT/RETIRE
/// cycles of pool query kServeProbeQuery on an otherwise idle daemon,
/// recorded in `stretch`.
void ServeProbes(const DaemonProcess& d, const Inputs& in, Oracle* oracle,
                 size_t probes, size_t stretch, E2E* e) {
  std::string error;
  auto c = Connection::Open(d.socket_path(), &error);
  if (c == nullptr) {
    e->Check(error);
    return;
  }
  FillReservoir(c.get(), in, oracle, e);
  for (size_t p = 0; p < probes && e->failed == 0; ++p) {
    uint64_t epoch = 0;
    if (!AdmitCycle(c.get(), in.pool[kServeProbeQuery], stretch, e, nullptr,
                    &epoch, [](uint64_t) { return true; })) {
      return;
    }
  }
}

std::vector<E2E> RunServe(const Args& a, const Inputs& in,
                          const std::vector<SpanLog*>& windows,
                          double window_s) {
  std::vector<E2E> out(windows.size());
  Oracle oracle(in.bank);
  std::vector<nw::DocResult> expected;
  std::vector<std::string> lines;
  for (const Doc& d : in.timed) {
    expected.push_back(oracle.Eval(in.bank, d));
    lines.push_back(SubmitLine(d));
  }
  if (a.corrupt) expected[0].accept[0] = !expected[0].accept[0];

  E2E setup;
  const DaemonSpec spec(a, in, "serve");
  std::unique_ptr<DaemonProcess> daemon = spec.Spawn(spec.socket_path, &setup);
  for (size_t w = 0; w < windows.size() && setup.failed == 0; ++w) {
    E2E& e = out[w];
    constexpr size_t kClients = 2;
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<size_t> next_doc;
    for (size_t c = 0; c < kClients; ++c) {
      std::string error;
      conns.push_back(Connection::Open(daemon->socket_path(), &error));
      if (conns.back() == nullptr) e.Check(error);
      next_doc.push_back(c * lines.size() / kClients);
    }
    if (e.failed > 0) break;
    uint64_t next_request = 1;
    std::string resp;
    nw::DocResult got;
    // The SUBMIT traffic pauses after every segment for a burst of
    // ADMIT/RETIRE probes and one spare spawn, so these sample the host
    // all through the run; no SUBMIT is timed while a refresh runs
    // (steadiness rule 2).
    for (size_t seg = 0; seg < kPauses && setup.failed == 0; ++seg) {
      // The probes of both windows of a traced run share a record, so
      // each window numbers its stretches apart.
      const size_t stretch =
          w * kServeStretches + seg * kServeStretches / kPauses;
      const int64_t start = NowNs();
      const int64_t deadline =
          start + static_cast<int64_t>(window_s / kPauses * 1e9);
      Work segment{stretch, 0, 0, 0};
      // The clients take turns, one request in flight at a time
      // (steadiness rule 5).
      for (size_t turn = 0; NowNs() < deadline; ++turn) {
        const size_t c = turn % kClients;
        const size_t i = next_doc[c];
        next_doc[c] = (i + 1) % lines.size();
        int64_t rtt;
        {
          ScopedSpan span(windows[w], "serve.submit", next_request++);
          rtt = Call(conns[c].get(), lines[i], &resp, &e);
        }
        if (rtt < 0) break;
        e.latency_ms.push_back({stretch, Ms(rtt)});
        if (!ParseSubmitResponse(resp, &got)) {
          e.Check("malformed SUBMIT response");
          break;
        }
        segment.positions += got.positions;
        ++segment.requests;
        e.Check(CompareResult(expected[i], got));
      }
      segment.seconds = static_cast<double>(NowNs() - start) / 1e9;
      e.traffic.push_back(segment);
      ServeProbes(*daemon, in, &oracle, kServeProbes / kPauses, stretch,
                  &setup);
      spec.TimeSpareSpawn(&setup);
    }
    e.streaming = e.traffic;
    e.peak_rss_mb = daemon->PeakRssMb();
  }
  if (daemon != nullptr) Shutdown(daemon.get(), &setup);
  MergeSetup(setup, &out);
  return out;
}

std::vector<E2E> RunChurn(const Args& a, const Inputs& in,
                          const std::vector<SpanLog*>& windows,
                          double window_s) {
  std::vector<E2E> out(windows.size());
  Oracle oracle(in.bank);
  for (const std::string& q : in.pool) oracle.Prepare(q);
  E2E setup;
  const DaemonSpec spec(a, in, "churn");
  std::unique_ptr<DaemonProcess> daemon = spec.Spawn(spec.socket_path, &setup);
  std::unique_ptr<Connection> c;
  if (daemon != nullptr) {
    std::string error;
    c = Connection::Open(daemon->socket_path(), &error);
    if (c == nullptr) setup.Check(error);
  }
  if (c != nullptr) FillReservoir(c.get(), in, &oracle, &setup);
  bool corrupt = a.corrupt;
  std::string resp;
  nw::DocResult got;
  for (size_t w = 0; w < windows.size() && setup.failed == 0; ++w) {
    E2E& e = out[w];
    SpanLog* spans = windows[w];
    const int64_t start = NowNs();
    const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
    const int64_t deadline = start + window_ns;
    // A spare spawn between cycles every window/kPauses, starting half an
    // interval in; the pauses are left out of the cycles' wall time.
    int64_t next_pause = start + window_ns / kPauses / 2;
    size_t cycles = 0;
    for (size_t cycle = 0; NowNs() < deadline && e.failed == 0; ++cycle) {
      if (NowNs() >= next_pause) {
        spec.TimeSpareSpawn(&setup);
        next_pause += window_ns / kPauses;
      }
      ScopedSpan span(spans, "churn.cycle", cycle + 1);
      const size_t stretch = cycle / kChurnStretchCycles;
      const int64_t cycle_start = NowNs();
      const std::string& query = in.pool[cycle % in.pool.size()];
      std::vector<std::string> in_force = in.bank;
      in_force.push_back(query);
      const size_t admits_before = e.admit_ms.size();
      const size_t submits_before = e.streaming.size();
      uint64_t admit_epoch = 0;
      AdmitCycle(c.get(), query, stretch, &e, spans, &admit_epoch,
                 [&](uint64_t epoch) {
        for (size_t j = 0; j < kChurnDocsPerCycle; ++j) {
          const Doc& d =
              in.timed[(cycle * kChurnDocsPerCycle + j) % in.timed.size()];
          int64_t rtt;
          {
            ScopedSpan sub(spans, "churn.submit");
            rtt = Call(c.get(), SubmitLine(d), &resp, &e);
          }
          if (rtt < 0) return false;
          uint64_t served_epoch = 0;
          if (!ParseSubmitResponse(resp, &got) ||
              !ResponseUint(resp, "epoch", &served_epoch)) {
            e.Check("malformed SUBMIT response");
            return false;
          }
          e.latency_ms.push_back({stretch, Ms(rtt)});
          e.streaming.push_back(
              {stretch, static_cast<double>(rtt) / 1e9, got.positions, 1});
          // The admitted set of the epoch the response names: no older
          // than the ADMIT's epoch, and no RETIRE has been sent yet.
          nw::DocResult want = oracle.Eval(in_force, d);
          if (corrupt) {
            want.accept[0] = !want.accept[0];
            corrupt = false;
          }
          e.Check(served_epoch < epoch ? "SUBMIT served by a pre-ADMIT epoch"
                                       : CompareResult(want, got));
        }
        return true;
      });
      // Completed requests: the SUBMITs, and an ADMIT and a RETIRE.
      e.traffic.push_back(
          {stretch, static_cast<double>(NowNs() - cycle_start) / 1e9, 0,
           e.streaming.size() - submits_before +
               (e.admit_ms.size() - admits_before) * 2});
      cycles = cycle + 1;
    }
    // An unfinished last pass counts only when no pass was finished.
    const size_t per_pass = in.pool.size() / kChurnStretchCycles;
    e.admit_stretches = per_pass;
    if (cycles >= in.pool.size()) {
      e.stretch_limit = cycles / in.pool.size() * per_pass;
    }
    e.peak_rss_mb = daemon->PeakRssMb();
  }
  c.reset();
  if (daemon != nullptr) Shutdown(daemon.get(), &setup);
  MergeSetup(setup, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// "p10=… p25=… p50=… n=…" plus the highest of p90/p99/p99.9 that has
/// at least ten samples beyond it.
std::string DescribeSamples(const std::vector<double>& v) {
  char buf[160];
  const double kTail[] = {0.999, 0.99, 0.9};
  const char* kNames[] = {"p99.9", "p99", "p90"};
  std::string tail = "none";
  for (size_t i = 0; i < 3; ++i) {
    if (static_cast<double>(v.size()) * (1 - kTail[i]) >= 10) {
      std::snprintf(buf, sizeof(buf), "%s=%.4f", kNames[i],
                    Percentile(v, kTail[i]));
      tail = buf;
      break;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "p10=%.4f p25=%.4f p50=%.4f n=%zu highest_supported=%s",
                Percentile(v, 0.1), Percentile(v, 0.25), Median(v), v.size(),
                tail.c_str());
  return buf;
}

void PrintE2E(const std::string& label, const E2E& e) {
  for (const Metric& m : EndToEnd(e)) {
    std::printf("%s %-18s %12.4f %s\n", label.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  double error_rate =
      e.attempted == 0 ? 1.0
                       : static_cast<double>(e.failed) /
                             static_cast<double>(e.attempted);
  std::printf("%s %-18s %12.4f ratio (%zu failed of %zu attempted)\n",
              label.c_str(), "error_rate", error_rate, e.failed, e.attempted);
  std::printf("%s %-18s %12.4f ms (information only, not gated)\n",
              label.c_str(), "latency_p99_ms",
              Percentile(Values(e.latency_ms), 0.99));
  std::printf("%s samples latency_ms %s\n", label.c_str(),
              DescribeSamples(Values(e.latency_ms)).c_str());
  std::printf("%s samples admit_ms %s\n", label.c_str(),
              DescribeSamples(Values(e.admit_ms)).c_str());
  std::printf("%s samples warm_ms %s\n", label.c_str(),
              DescribeSamples(Values(e.warm_ms)).c_str());
  // Each stretch's figure, in stretch order: how steady the host was.
  auto print = [&label](const char* name, const std::vector<double>& v) {
    std::string line = label + " stretches " + name + ":";
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), " %.4g", x);
      line += buf;
    }
    std::printf("%s\n", line.c_str());
  };
  const size_t limit = e.stretch_limit;
  print("latency_ms", StretchMedians(e.latency_ms, limit));
  print("admit_ms", StretchMedians(e.admit_ms, limit, e.admit_stretches));
  print("warm_ms", StretchMedians(e.warm_ms, limit));
  print("req/s", StretchRates(e.traffic, &Work::requests, limit));
  std::vector<double> setup_ms;
  for (double s : e.setup_s) setup_ms.push_back(s * 1000);
  std::printf("%s samples setup_ms %s\n", label.c_str(),
              DescribeSamples(setup_ms).c_str());
  if (!e.failure.empty()) {
    std::printf("%s first failure: %s\n", label.c_str(), e.failure.c_str());
  }
}

int Run(const Args& a) {
  ::mkdir(a.out_dir.c_str(), 0755);
  std::string host = HostJson();
  std::printf("nwbench workload=%s seed=%llu seconds=%g trace=%d "
              "(held-out seed %llu)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0,
              static_cast<unsigned long long>(kHeldOutSeed));
  std::printf("host %s\n", host.c_str());
  int cpu = PinToOneCpu();
  std::printf("pinned to cpu %d with every thread and child process\n", cpu);
  std::fflush(stdout);

  Inputs in = MakeInputs(a.workload, a.seed);
  SpanLog spans;
  std::vector<SpanLog*> windows = {nullptr};
  double window_s = a.seconds;
  if (a.trace) {
    // The same inputs once untraced and once traced, half the time each,
    // so the cost of tracing shows beside the untraced numbers.
    windows.push_back(&spans);
    window_s = a.seconds / 2;
  }
  std::vector<E2E> e2e;
  if (a.workload == "serve") {
    e2e = RunServe(a, in, windows, window_s);
  } else {
    e2e = RunChurn(a, in, windows, window_s);
  }
  size_t attempted = 0, failed = 0;
  for (const E2E& e : e2e) {
    attempted += e.attempted;
    failed += e.failed;
  }
  PrintE2E(a.trace ? "untraced" : "e2e", e2e[0]);

  std::vector<Metric> metrics = EndToEnd(e2e[0]);
  if (a.trace) {
    PrintE2E("traced", e2e[1]);
    std::vector<Metric> traced = EndToEnd(e2e[1]);
    std::printf("tracing overhead (traced vs untraced, same inputs):\n");
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("  %-18s untraced=%-12.4f traced=%-12.4f %s\n",
                  metrics[i].name.c_str(), metrics[i].value, traced[i].value,
                  metrics[i].unit.c_str());
    }
    LayerEnv env;
    env.nwqueryd = a.nwqueryd;
    env.socket_path =
        a.out_dir + "/layers-" + std::to_string(::getpid()) + ".sock";
    env.query_file = a.out_dir + "/layers.nwq";
    env.log_path = a.out_dir + "/nwqueryd.log";
    env.spans = &spans;
    LayerResult layers = MeasureLayers(in.layers, env);
    attempted += layers.attempted;
    failed += layers.failed;
    if (!layers.failure.empty()) {
      std::printf("ladder first failure: %s\n", layers.failure.c_str());
    }
    for (const std::string& line : layers.lines) {
      std::printf("%s\n", line.c_str());
    }
    // Shares of end-to-end time the main layers account for.
    auto e2e = [&metrics](const char* name) {
      return MetricValue(metrics, name);
    };
    auto layer = [&layers](const char* name) {
      return MetricValue(layers.metrics, name);
    };
    // Every thread shares one CPU (steadiness rule 5), so a request's
    // wall time is the CPU time of all the layers it passes through.
    const double lat_us = e2e("latency_p50_ms") * 1000;
    std::printf("share serve: tokenize=%.3f step=%.3f call_overhead=%.3f "
                "dispatch=%.3f protocol=%.3f socket=%.3f of latency_p50 "
                "%.1f us\n",
                layers.tokenize_us / lat_us, layers.step_us / lat_us,
                layer("serve.call_overhead_us") / lat_us,
                layer("daemon.dispatch_us") / lat_us,
                layer("daemon.protocol_us_per_kb") * layers.request_kb / lat_us,
                layer("daemon.socket_us") / lat_us, lat_us);
    const double admit_ms = e2e("admit_p50_ms");
    const double warm_ms = e2e("warm_p50_ms");
    std::printf("share churn: admit_p50 %.2f ms <- bank(compile all)=%.3f | "
                "warm_p50 %.2f ms <- replay=%.3f explore=%.3f freeze=%.3f\n",
                admit_ms, layer("opt.bank_ms") / admit_ms, warm_ms,
                layers.replay_ms / warm_ms, layer("opt.explore_ms") / warm_ms,
                layer("serve.freeze_ms") / warm_ms);
    for (const std::string& line : spans.Summary()) {
      std::printf("%s\n", line.c_str());
    }
    std::string spans_path = a.out_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (!spans.WriteJsonl(spans_path)) {
      std::printf("cannot write %s\n", spans_path.c_str());
      ++failed;
    }
    metrics = layers.metrics;
  }

  const bool correct = failed == 0 && attempted > 0;
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::string record_path = a.out_dir + "/result-" + a.workload + "-seed" +
                            std::to_string(a.seed) + "-trace" +
                            (a.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"held_out_seed\": "
                 "%llu, \"seconds\": %g, \"host\": %s, \"result\": %s}\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 static_cast<unsigned long long>(kHeldOutSeed), a.seconds,
                 host.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace nwbench

int main(int argc, char** argv) {
  nwbench::Args args;
  if (!nwbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nwbench --workload serve|churn --seed N "
                 "--seconds S --trace 0|1 --nwqueryd PATH --out-dir DIR "
                 "[--corrupt-expectation]\n");
    return 2;
  }
  return nwbench::Run(args);
}
