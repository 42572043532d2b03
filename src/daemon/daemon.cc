#include "daemon/daemon.h"

#include <algorithm>

#include "query/engine.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace nw {

/// Recent documents the refresh replays.
constexpr size_t kReplayCapacity = 64;

DaemonCore::DaemonCore(const std::vector<std::string>& initial_queries,
                       const DaemonOptions& options)
    : options_(options) {
  NW_CHECK_MSG(!initial_queries.empty(),
               "a daemon needs at least one initial query (a shared bank "
               "cannot be empty)");
  NW_CHECK_MSG(options_.threads >= 1, "daemon needs at least one thread");

  size_t failed = 0;
  Result<ParsedBank> parsed = ParseBank(initial_queries, &failed);
  if (!parsed.ok()) {
    init_error_ = Status::Error("query '" + initial_queries[failed] +
                                "': " + parsed.status().message());
    return;
  }
  if (parsed->alphabet.size() > kMaxDaemonSymbols) {
    init_error_ = Status::Error(
        "initial queries name " + std::to_string(parsed->alphabet.size()) +
        " symbols, past the limit of " + std::to_string(kMaxDaemonSymbols));
    return;
  }

  // Registration completes here — RenderProm scrapes and the pulse
  // sampler iterate the sink list lock-free, so nothing registers
  // later. Meta is ctor-only for the same reason.
  registry_.SetMeta("mode", "daemon");
  registry_.SetMeta("format", InputFormatName(options_.default_format));
  registry_.SetMetaNum("threads", options_.threads);
  registry_.Register("daemon", &daemon_sink_);
  for (size_t i = 0; i < options_.threads; ++i) {
    shard_sinks_.push_back(std::make_unique<StatsSink>());
    registry_.Register("shard/" + std::to_string(i), shard_sinks_[i].get());
    free_slots_.push_back(options_.threads - 1 - i);
  }

  // Warm start: serve an explored snapshot from the first document.
  std::vector<uint64_t> qids;
  while (qids.size() < initial_queries.size()) qids.push_back(next_qid_++);
  std::lock_guard<std::mutex> lock(admit_mu_);
  RebuildLocked(std::move(qids), parsed.Take(), /*refreshed=*/true);
}

DaemonCore::~DaemonCore() { DrainAndStop(); }

void DaemonCore::Start() {
  NW_CHECK_MSG(ok(), "starting a DaemonCore whose construction failed");
  NW_CHECK_MSG(!started_, "Start() may be called once");
  started_ = true;
  refresher_ = std::thread(&DaemonCore::RefresherLoop, this);
}

void DaemonCore::DrainAndStop() {
  {
    // New SUBMITs are refused from here on; the ones holding a slot
    // finish their document first.
    std::unique_lock<std::mutex> lock(slot_mu_);
    stopping_ = true;
    slot_cv_.notify_all();
    slot_cv_.wait(lock,
                  [&] { return free_slots_.size() == shard_sinks_.size(); });
  }
  {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    refresh_stop_ = true;
  }
  refresh_cv_.notify_all();
  if (refresher_.joinable()) refresher_.join();
}

void DaemonCore::RebuildLocked(std::vector<uint64_t> qids, ParsedBank parsed,
                               bool refreshed) {
  auto epoch = std::make_shared<DaemonEpoch>(
      std::make_shared<const Alphabet>(std::move(parsed.alphabet)),
      parsed.other);
  epoch->qids = std::move(qids);
  epoch->query_texts = std::move(parsed.texts);
  // Every pass, the shared product included: the daemon serves frozen
  // snapshots of it. No compile timeline, which would race the /metrics
  // renders (admissions record while scrapes read).
  epoch->bank = std::make_shared<OptimizedBank>(OptimizeBank(
      parsed.queries, epoch->alphabet.size(), OptOptions::All()));
  PublishEpochLocked(std::move(epoch), refreshed);
}

void DaemonCore::PublishEpochLocked(std::shared_ptr<DaemonEpoch> epoch,
                                    bool refreshed) {
  SharedBank* shared = epoch->bank->shared.get();
  if (refreshed) {
    // Replay recent traffic through the live bank first: streaming IS
    // exploration (the memo table interns every tuple the documents
    // visit), so the tuples the shards' banks kept stepping are
    // promoted into the snapshot even when the capped ExploreAll below
    // cannot finish the full product.
    std::vector<ReplayDoc> replay;
    {
      std::lock_guard<std::mutex> lock(replay_mu_);
      replay.assign(replay_.begin(), replay_.end());
    }
    if (!replay.empty()) {
      // Names resolve read-only against the epoch's alphabet; one its
      // queries do not mention steps as the catch-all, as when served.
      QueryEngine trainer(shared->num_symbols());
      trainer.set_other_symbol(epoch->other);
      trainer.AddBank(shared);
      for (const ReplayDoc& d : replay) {
        trainer.RunAll(d.text, &epoch->alphabet, d.format);
      }
    }
    shared->ExploreAll(options_.refresh_cap, nullptr);
  }
  epoch->id = next_epoch_id_++;
  epoch->refreshed = refreshed;
  epoch->frozen = FrozenBank::FreezeShared(*shared);
  epoch->num_symbols = epoch->frozen->num_symbols();
  epoch->baseline = CaptureSnapshot(registry_);
  uint64_t id = epoch->id;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    epoch_ = std::move(epoch);
  }
  // Caller holds admit_mu_, which serializes these daemon-sink writers.
  daemon_sink_.daemon_epoch.Set(id);
  if (refreshed) daemon_sink_.daemon_refreshes.Inc();
}

std::shared_ptr<const DaemonEpoch> DaemonCore::current_epoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return epoch_;
}

void DaemonCore::CountRequest() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  daemon_sink_.daemon_requests.Inc();
}

void DaemonCore::RecordSubmitTransport(uint64_t decode_us,
                                       uint64_t send_us) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  daemon_sink_.submit_decode_us.Record(decode_us);
  daemon_sink_.submit_send_us.Record(send_us);
}

void DaemonCore::RememberDoc(std::string text, InputFormat format) {
  ReplayDoc evicted;
  {
    std::lock_guard<std::mutex> lock(replay_mu_);
    replay_.push_back(ReplayDoc{std::move(text), format});
    if (replay_.size() > kReplayCapacity) {
      evicted = std::move(replay_.front());
      replay_.pop_front();
    }
  }
  // `evicted` frees its document here, outside the lock.
}

Result<SubmitOutcome> DaemonCore::Submit(std::string doc,
                                         InputFormat format) {
  const uint64_t submit_us = PulseNowUs();
  size_t slot;
  {
    std::unique_lock<std::mutex> lock(slot_mu_);
    slot_cv_.wait(lock, [&] { return stopping_ || !free_slots_.empty(); });
    if (stopping_) {
      return Status::Error("daemon: shutting down, submit rejected");
    }
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint64_t start_us = PulseNowUs();
  // Slot `slot` is this thread's until it is handed back below, and with
  // it shard sink `slot`: one writer at a time.
  StatsSink* sink = shard_sinks_[slot].get();
  SubmitOutcome outcome;
  outcome.epoch = current_epoch();
  {
    // A fresh bank per document: what the snapshot misses interns into
    // a bank this document alone steps, freed when it completes.
    const DaemonEpoch& epoch = *outcome.epoch;
    ShardRun run(epoch.frozen.get(), epoch.num_symbols, epoch.other,
                 /*track_matches=*/true, sink, /*attr=*/nullptr);
    outcome.result = run.Evaluate(doc, epoch.alphabet, format);
  }
  const uint64_t done_us = PulseNowUs();
  sink->daemon_docs.Inc();
  sink->submit_wait_us.Record(start_us - submit_us);
  sink->submit_eval_us.Record(done_us - start_us);
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    free_slots_.push_back(slot);
  }
  // notify_all: DrainAndStop waits on the same variable for every slot.
  slot_cv_.notify_all();
  outcome.latency_us = done_us - submit_us;
  RememberDoc(std::move(doc), format);
  return outcome;
}

Result<uint64_t> DaemonCore::Admit(const std::string& query_text) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Stopwatch sw;
  // The admitted normal forms re-parse cleanly, so only the new text can
  // fail; a rejected ADMIT leaves the live epoch as it was.
  std::shared_ptr<const DaemonEpoch> live = current_epoch();
  std::vector<std::string> texts = live->query_texts;
  texts.push_back(query_text);
  Result<ParsedBank> parsed = ParseBank(texts);
  if (!parsed.ok()) {
    return Status::Error("admit: " + parsed.status().message());
  }
  if (parsed->alphabet.size() > kMaxDaemonSymbols) {
    return Status::Error(
        "admit: the query's names would take the symbol space to " +
        std::to_string(parsed->alphabet.size()) + ", past the limit of " +
        std::to_string(kMaxDaemonSymbols));
  }
  uint64_t qid = next_qid_++;
  std::vector<uint64_t> qids = live->qids;
  qids.push_back(qid);
  // Let the superseded epoch die at the swap, before the refresher is
  // woken, not after it on this thread's way to the reply.
  live.reset();
  // Cold publication: freezing the unexplored bank snapshots just the
  // initial state, so admission latency is compile-bound. Every step
  // misses to the shards' banks (correct, slower) until the refresh
  // nudged below publishes the explored snapshot.
  RebuildLocked(std::move(qids), parsed.Take(), /*refreshed=*/false);
  daemon_sink_.daemon_admissions.Inc();
  daemon_sink_.admission_latency_us.Record(
      static_cast<uint64_t>(sw.ElapsedUs()));
  {
    std::lock_guard<std::mutex> rlock(refresh_mu_);
    ++refresh_requested_;
  }
  refresh_cv_.notify_all();
  return qid;
}

Status DaemonCore::Retire(uint64_t qid) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  std::shared_ptr<const DaemonEpoch> live = current_epoch();
  std::vector<uint64_t> qids = live->qids;
  auto it = std::find(qids.begin(), qids.end(), qid);
  if (it == qids.end()) {
    return Status::Error("retire: no admitted query with qid " +
                         std::to_string(qid));
  }
  if (qids.size() == 1) {
    return Status::Error(
        "retire: cannot retire the last query (a shared bank cannot be "
        "empty); admit a replacement first or SHUTDOWN");
  }
  std::vector<std::string> texts = live->query_texts;
  texts.erase(texts.begin() + (it - qids.begin()));
  qids.erase(it);
  live.reset();  // as in Admit
  RebuildLocked(std::move(qids), ParseBank(texts).Take(),
                /*refreshed=*/false);
  daemon_sink_.daemon_retirements.Inc();
  {
    std::lock_guard<std::mutex> rlock(refresh_mu_);
    ++refresh_requested_;
  }
  refresh_cv_.notify_all();
  return Status::Ok();
}

void DaemonCore::AwaitRefresh() {
  std::unique_lock<std::mutex> lock(refresh_mu_);
  uint64_t target = ++refresh_requested_;
  refresh_cv_.notify_all();
  refresh_cv_.wait(lock, [&] {
    return refresh_done_ >= target || refresh_stop_;
  });
}

void DaemonCore::RefresherLoop() {
  uint64_t handled = 0;
  for (;;) {
    uint64_t target;
    {
      std::unique_lock<std::mutex> lock(refresh_mu_);
      refresh_cv_.wait(lock, [&] {
        return refresh_stop_ || refresh_requested_ > handled;
      });
      // A stop with requests still pending runs one last refresh so an
      // AwaitRefresh caller racing shutdown is never stranded.
      if (refresh_requested_ <= handled) return;  // refresh_stop_
      target = refresh_requested_;
    }
    {
      // Re-freeze the live bank, explored, as a new epoch of the same
      // admission set: same queries, alphabet and catch-all.
      std::lock_guard<std::mutex> lock(admit_mu_);
      std::shared_ptr<const DaemonEpoch> live = current_epoch();
      auto epoch = std::make_shared<DaemonEpoch>(live->names, live->other);
      epoch->qids = live->qids;
      epoch->query_texts = live->query_texts;
      epoch->bank = live->bank;
      PublishEpochLocked(std::move(epoch), /*refreshed=*/true);
    }
    handled = target;
    {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      refresh_done_ = target;
    }
    refresh_cv_.notify_all();
  }
}

EpochMetrics DaemonCore::Metrics() const {
  std::shared_ptr<const DaemonEpoch> epoch = current_epoch();
  StatsSnapshot now = CaptureSnapshot(registry_);
  StatsSnapshot delta = SnapshotDelta(epoch->baseline, now);
  SinkSnapshot interval = delta.Aggregate();
  SinkSnapshot lifetime = now.Aggregate();
  EpochMetrics m;
  m.epoch = epoch->id;
  m.refreshed = epoch->refreshed;
  m.queries = epoch->query_texts.size();
  m.frozen_states = epoch->frozen->num_states();
  m.num_symbols = epoch->num_symbols;
  m.documents = interval.counter("shard_docs");
  m.positions = interval.counter("shard_positions");
  m.frozen_hits = interval.counter("frozen_hits");
  m.frozen_misses = interval.counter("frozen_misses");
  uint64_t steps = m.frozen_hits + m.frozen_misses;
  m.has_traffic = steps > 0;
  m.hit_rate = steps == 0 ? 0.0
                          : static_cast<double>(m.frozen_hits) /
                                static_cast<double>(steps);
  const HistogramSnapshot& latency = interval.histogram("doc_latency_us");
  m.doc_p50_us = latency.Percentile(0.50);
  m.doc_p99_us = latency.Percentile(0.99);
  m.wait_p50_us = interval.histogram("submit_wait_us").Percentile(0.50);
  m.decode_p50_us = interval.histogram("submit_decode_us").Percentile(0.50);
  m.eval_p50_us = interval.histogram("submit_eval_us").Percentile(0.50);
  m.send_p50_us = interval.histogram("submit_send_us").Percentile(0.50);
  m.total_requests = lifetime.counter("daemon_requests");
  m.total_documents = lifetime.counter("daemon_docs");
  m.admissions = lifetime.counter("daemon_admissions");
  m.retirements = lifetime.counter("daemon_retirements");
  m.refreshes = lifetime.counter("daemon_refreshes");
  m.admit_p99_us =
      lifetime.histogram("admission_latency_us").Percentile(0.99);
  return m;
}

std::string DaemonCore::RenderStatsJson() const {
  std::shared_ptr<const DaemonEpoch> epoch = current_epoch();
  EpochMetrics m = Metrics();
  std::string out = "{\"epoch\":" + std::to_string(m.epoch);
  out += ",\"refreshed\":";
  out += m.refreshed ? "true" : "false";
  out += ",\"frozen_states\":" + std::to_string(m.frozen_states);
  out += ",\"num_symbols\":" + std::to_string(m.num_symbols);
  out += ",\"queries\":[";
  for (size_t i = 0; i < epoch->qids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"qid\":" + std::to_string(epoch->qids[i]) + ",\"text\":";
    AppendJsonString(&out, epoch->query_texts[i]);
    out.push_back('}');
  }
  out += "],\"interval\":{\"documents\":" + std::to_string(m.documents);
  out += ",\"positions\":" + std::to_string(m.positions);
  out += ",\"frozen_hits\":" + std::to_string(m.frozen_hits);
  out += ",\"frozen_misses\":" + std::to_string(m.frozen_misses);
  out += ",\"hit_rate\":";
  if (m.has_traffic) {
    AppendJsonDouble(&out, m.hit_rate);
  } else {
    out += "null";
  }
  out += ",\"doc_p50_us\":" + std::to_string(m.doc_p50_us);
  out += ",\"doc_p99_us\":" + std::to_string(m.doc_p99_us);
  out += ",\"submit_p50_us\":{\"wait\":" + std::to_string(m.wait_p50_us);
  out += ",\"decode\":" + std::to_string(m.decode_p50_us);
  out += ",\"evaluate\":" + std::to_string(m.eval_p50_us);
  out += ",\"send\":" + std::to_string(m.send_p50_us) + "}";
  out += "},\"lifetime\":{\"requests\":" + std::to_string(m.total_requests);
  out += ",\"documents\":" + std::to_string(m.total_documents);
  out += ",\"admissions\":" + std::to_string(m.admissions);
  out += ",\"retirements\":" + std::to_string(m.retirements);
  out += ",\"refreshes\":" + std::to_string(m.refreshes);
  out += ",\"admit_p99_us\":" + std::to_string(m.admit_p99_us);
  out += "}}";
  return out;
}

}  // namespace nw
