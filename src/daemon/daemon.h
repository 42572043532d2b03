// NWDaemon core: the resident serving engine behind nwqueryd (ROADMAP:
// NWDaemon). The paper's one-pass/whole-bank guarantee only becomes a
// service when the compiled bank outlives any single document; this
// layer keeps one compiled bank and its frozen snapshot hot across
// documents, admits and retires queries online, and refreshes the
// snapshot epoch-style:
//
//   epoch — an immutable published serving state: the admitted queries,
//     their symbol space and catch-all, their optimized bank, a
//     FrozenBank snapshot, and the NWPulse baseline capture per-epoch
//     metrics delta against. Published RCU-fashion as shared_ptr<const
//     DaemonEpoch>: readers (SUBMITs, STATS renders) copy the handle
//     and never block a publisher; a superseded epoch is reclaimed when
//     its last holder drops it.
//
//   admission — an epoch is a function of its query texts alone: ADMIT
//     and RETIRE hand ParseBank (query/nwquery.h) the admitted normal
//     forms, the new text added or the retired one dropped, and rebuild
//     from its result. The symbol space holds just the names the live
//     queries mention, then #text and %other, so a name leaves with the
//     last query that mentions it; a text that fails to parse, or a bank
//     past kMaxDaemonSymbols, is rejected and changes nothing. The whole
//     bank is recompiled and published as a COLD epoch (frozen without
//     exploration: the snapshot holds just the initial state, so every
//     step misses to the SUBMITs' banks — correct immediately, slow
//     until refreshed). Admission latency is therefore compile-bound,
//     not exploration-bound.
//
//   refresh — a background thread replays a bounded reservoir of recent
//     documents through the live SharedBank (promoting the tuples real
//     traffic needs, exactly the ones the SUBMITs' banks kept stepping),
//     completes with a capped ExploreAll, freezes, and publishes a
//     refreshed epoch sharing the same bank and alphabet — so the frozen
//     hit rate climbs back toward 1.0 after every admission, with zero
//     reader stalls (a SUBMIT keeps streaming over the old snapshot
//     until its document completes).
//
// Threading: a SUBMIT is evaluated on the thread that calls Submit (the
// server's connection thread). It checks out one of `threads` engine
// slots — slot i owns the "shard/i" stats sink, so each sink keeps one
// writer at a time — and streams the document through a fresh ShardRun
// over current_epoch()'s snapshot; at most `threads` documents are
// evaluated at once, and a caller past that waits for a slot. ADMIT/
// RETIRE/refresh serialize under one admission mutex; epoch publication
// is a pointer swap under a second tiny mutex. Daemon-sink writes happen
// under the admission mutex or the stats mutex, shard-sink writes under
// a slot checkout, keeping every relaxed-atomic cell single-writer-at-
// a-time.
#ifndef NW_DAEMON_DAEMON_H_
#define NW_DAEMON_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nw/alphabet.h"
#include "obs/pulse.h"
#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "stream/token_stream.h"
#include "support/result.h"

namespace nw {

/// The largest symbol space an epoch may have: Nwa's return table packs
/// a symbol id into 16 bits, so ids run 0..65535. An ADMIT whose names
/// would take the live bank's symbol space past it is rejected.
inline constexpr size_t kMaxDaemonSymbols = size_t{1} << 16;

/// Construction-time knobs for DaemonCore.
struct DaemonOptions {
  /// Engine slots: documents evaluated at once.
  size_t threads = 1;
  /// Front end assumed for SUBMITs that carry no format tag.
  InputFormat default_format = InputFormat::kXml;
  /// ExploreAll state cap for the refresh pass (the nwquery freeze cap's
  /// daemon twin; a bank that trips it serves the partial snapshot).
  size_t refresh_cap = 1u << 16;
};

/// One published serving state. Immutable after publication; the `bank`
/// is shared with later refreshed epochs of the same admission set and
/// is mutated ONLY by the refresher, under the core's admission mutex.
struct DaemonEpoch {
  DaemonEpoch(std::shared_ptr<const Alphabet> names, Symbol other)
      : names(std::move(names)), alphabet(*this->names), other(other) {}

  uint64_t id = 0;
  /// True when this epoch's snapshot came from a refresh (replay +
  /// ExploreAll) rather than a cold admission freeze.
  bool refreshed = false;
  /// Admission ids, in bank order (= query/result index order).
  std::vector<uint64_t> qids;
  /// Normal-form query texts, parallel to qids.
  std::vector<std::string> query_texts;
  /// Owns the compiled NWAs and the live SharedBank the frozen snapshot
  /// (and every shard's bank) aliases into.
  std::shared_ptr<OptimizedBank> bank;
  /// The immutable snapshot this epoch serves — the RCU unit.
  std::shared_ptr<const FrozenBank> frozen;
  /// The symbol space ParseBank laid out over `query_texts`: built by
  /// the ADMIT, RETIRE or startup that compiled `bank`, and shared by
  /// the epochs its refreshes publish.
  std::shared_ptr<const Alphabet> names;
  /// `*names`: the shard workers resolve names against it read-only.
  const Alphabet& alphabet;
  /// `%other` in `alphabet`: every name the queries do not mention
  /// steps as it.
  Symbol other;
  size_t num_symbols = 0;
  /// Registry capture at publish: per-epoch metrics are
  /// SnapshotDelta(baseline, now).
  StatsSnapshot baseline;
};

/// One SUBMIT's outcome: the document's per-query results plus the
/// epoch that served it (so callers can render query texts and tests
/// can oracle-check against exactly that epoch's bank).
struct SubmitOutcome {
  std::shared_ptr<const DaemonEpoch> epoch;
  DocResult result;
  /// Submit-to-result wall time (slot wait + evaluation), µs.
  uint64_t latency_us = 0;
};

/// Per-epoch serving metrics (the STATS payload), derived from the
/// snapshot delta between the epoch's publish baseline and now.
struct EpochMetrics {
  uint64_t epoch = 0;
  bool refreshed = false;
  size_t queries = 0;
  size_t frozen_states = 0;
  size_t num_symbols = 0;
  // -- interval (since this epoch was published) --
  uint64_t documents = 0;
  uint64_t positions = 0;
  uint64_t frozen_hits = 0;
  uint64_t frozen_misses = 0;
  bool has_traffic = false;
  double hit_rate = 0.0;  ///< meaningful only when has_traffic
  uint64_t doc_p50_us = 0;
  uint64_t doc_p99_us = 0;
  /// Medians of a SUBMIT's four shares: slot wait, request decode,
  /// evaluation, and response render + send.
  uint64_t wait_p50_us = 0;
  uint64_t decode_p50_us = 0;
  uint64_t eval_p50_us = 0;
  uint64_t send_p50_us = 0;
  // -- lifetime --
  uint64_t total_requests = 0;
  uint64_t total_documents = 0;
  uint64_t admissions = 0;
  uint64_t retirements = 0;
  uint64_t refreshes = 0;
  uint64_t admit_p99_us = 0;
};

/// The resident engine. Construct with at least one query (a SharedBank
/// product needs >= 1 automaton, so a daemon serving zero queries is
/// unrepresentable — RETIRE of the last query is rejected for the same
/// reason), then Start(); Submit/Admit/Retire are safe from any number
/// of connection threads. DrainAndStop() waits for every SUBMIT already
/// evaluating before returning — the graceful-shutdown half of the
/// protocol.
class DaemonCore {
 public:
  /// Parses and compiles `initial_queries` (normal nwquery grammar, one
  /// per entry) and explores epoch 0 before publishing it, so startup
  /// serves a warm snapshot. Aborts (NW_CHECK) on an empty list; a query
  /// that fails to parse leaves the object unusable with the message,
  /// which quotes the query, in init_error() — check ok() before
  /// Start().
  DaemonCore(const std::vector<std::string>& initial_queries,
             const DaemonOptions& options);
  ~DaemonCore();

  DaemonCore(const DaemonCore&) = delete;
  DaemonCore& operator=(const DaemonCore&) = delete;

  /// False when an initial query failed to parse/compile; the error has
  /// the message. A !ok() core must not be started.
  bool ok() const { return init_error_.ok(); }
  const Status& init_error() const { return init_error_; }

  /// Launches the refresher thread. Call once.
  void Start();

  /// Stops accepting new SUBMITs, waits for the ones evaluating, joins
  /// the refresher. Idempotent; the destructor calls it.
  void DrainAndStop();

  /// Evaluates one document against the current epoch on the calling
  /// thread, once an engine slot is free, then keeps it for refresh
  /// replay (moved, not copied). Thread-safe.
  Result<SubmitOutcome> Submit(std::string doc, InputFormat format);

  /// Tallies one accepted protocol request (any op) into the daemon
  /// sink. The server calls this once per parsed request; direct API
  /// users (tests) may skip it. Thread-safe.
  void CountRequest();

  /// Records the transport's share of one SUBMIT into the daemon sink:
  /// decoding its request line, and rendering and sending its response.
  /// Submit records the other two shares (slot wait, evaluation).
  /// Thread-safe.
  void RecordSubmitTransport(uint64_t decode_us, uint64_t send_us);

  /// Admits one query online: rebuild from the admitted texts plus this
  /// one, publish a cold epoch, nudge the background refresh. Returns
  /// the new query's admission id. A query that fails to parse, or whose
  /// names would take the symbol space past kMaxDaemonSymbols, is
  /// rejected and changes nothing. Thread-safe; admissions serialize.
  Result<uint64_t> Admit(const std::string& query_text);

  /// Retires an admitted query by id: rebuild from the other texts, so
  /// names only it mentioned leave the symbol space. Rejects unknown ids
  /// and the last remaining query. Thread-safe.
  Status Retire(uint64_t qid);

  /// Blocks until a refresh published at or after this call completes —
  /// the deterministic spelling the tests and a drain use ("the hit
  /// rate has climbed" needs a refreshed epoch to exist).
  void AwaitRefresh();

  /// The currently-serving epoch (never null after construction).
  std::shared_ptr<const DaemonEpoch> current_epoch() const;

  /// Per-epoch metrics: delta between the current epoch's baseline and
  /// a capture taken now. Thread-safe.
  EpochMetrics Metrics() const;

  /// The STATS response payload: Metrics() as one stable JSON object.
  std::string RenderStatsJson() const;

  /// The registry behind /metrics (RenderProm) and the pulse sampler.
  /// Fully registered by the end of construction — safe to sample.
  const StatsRegistry& registry() const { return registry_; }

  size_t threads() const { return options_.threads; }
  InputFormat default_format() const { return options_.default_format; }

 private:
  /// Compiles ParseBank's `parsed` into a fresh bank and publishes it,
  /// with `qids` parallel to its texts, as a new epoch over its alphabet:
  /// warm (`refreshed`) or cold. Caller holds admit_mu_.
  void RebuildLocked(std::vector<uint64_t> qids, ParsedBank parsed,
                     bool refreshed);

  /// Freezes `epoch`'s bank and publishes the epoch. `refreshed` tags it
  /// and first runs the replay + ExploreAll warmup (cold rebuilds skip
  /// it). Caller holds admit_mu_.
  void PublishEpochLocked(std::shared_ptr<DaemonEpoch> epoch,
                          bool refreshed);

  void RefresherLoop();

  /// Remembers a document for refresh replay (bounded ring).
  void RememberDoc(std::string text, InputFormat format);

  DaemonOptions options_;
  Status init_error_;

  // -- admission (admit_mu_): rebuilds and refreshes serialize here. The
  // admitted queries are the current epoch's qids and query_texts. --
  mutable std::mutex admit_mu_;
  uint64_t next_qid_ = 0;

  // -- epoch publication (state_mu_): the RCU pointer swap. --
  mutable std::mutex state_mu_;
  std::shared_ptr<const DaemonEpoch> epoch_;
  uint64_t next_epoch_id_ = 0;

  // -- engine slots (slot_mu_): indexes of the shard sinks no SUBMIT
  // holds. A SUBMIT takes one for its whole evaluation. --
  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::vector<size_t> free_slots_;
  bool stopping_ = false;

  // -- refresh signal (refresh_mu_). --
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;
  uint64_t refresh_requested_ = 0;  ///< generation counter
  uint64_t refresh_done_ = 0;
  bool refresh_stop_ = false;

  // -- replay reservoir (replay_mu_): recent docs for refresh warmup. --
  std::mutex replay_mu_;
  struct ReplayDoc {
    std::string text;
    InputFormat format;
  };
  std::deque<ReplayDoc> replay_;

  // -- observability. Registration completes in the constructor (the
  // pulse scraper and RenderProm iterate the sink list lock-free). The
  // daemon sink's cells are written under admit_mu_ (control ops) or
  // stats_mu_ (connection-thread tallies); shard sink i only by the
  // SUBMIT holding slot i. --
  StatsRegistry registry_;
  StatsSink daemon_sink_;
  mutable std::mutex stats_mu_;
  std::vector<std::unique_ptr<StatsSink>> shard_sinks_;

  std::thread refresher_;
  bool started_ = false;
};

}  // namespace nw

#endif  // NW_DAEMON_DAEMON_H_
