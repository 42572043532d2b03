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
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
// Oracle: an independent single-stream compilation of an epoch's query
// texts. Symbol ids differ from the daemon's master alphabet, but accept
// vectors, first-match positions, and position counts are id-independent
// (unknown names map to the %other catch-all on both sides).
// ---------------------------------------------------------------------------

struct Oracle {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;
  std::unique_ptr<QueryEngine> engine;

  explicit Oracle(const std::vector<std::string>& texts) {
    for (const std::string& text : texts) {
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
      it = cache_.emplace(epoch.id,
                          std::make_unique<Oracle>(epoch.query_texts))
               .first;
    }
    return it->second.get();
  }

 private:
  std::map<uint64_t, std::unique_ptr<Oracle>> cache_;
};

/// One comparison; returns a description of the first mismatch or "".
std::string CompareOutcome(const SubmitOutcome& outcome, Oracle* oracle,
                           const std::string& doc, InputFormat format) {
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
