#include "daemon/daemon.h"

#include "query/engine.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace nw {

DaemonCore::DaemonCore(const std::vector<std::string>& initial_queries,
                       const DaemonOptions& options)
    : options_(options) {
  NW_CHECK_MSG(!initial_queries.empty(),
               "a daemon needs at least one initial query (a shared bank "
               "cannot be empty)");
  NW_CHECK_MSG(options_.threads >= 1, "daemon needs at least one thread");

  for (const std::string& text : initial_queries) {
    Result<Query> q = ParseQuery(text, &alphabet_);
    if (!q.ok()) {
      init_error_ = Status::Error("query '" + text +
                                  "': " + q.status().message());
      return;
    }
    Query ast = q.Take();
    std::string normal = FormatQuery(ast, alphabet_);
    admitted_.push_back(Admitted{next_qid_++, std::move(normal),
                                 std::move(ast)});
  }
  // Fix the low symbol space exactly like the CLI: query names, the
  // text pseudo-symbol, then the catch-all. Admitted queries intern
  // AFTER these, so the catch-all id is stable across every epoch.
  alphabet_.Intern("#text");
  other_ = alphabet_.Intern("%other");

  // Registration completes here — RenderProm scrapes and the pulse
  // sampler iterate the sink list lock-free, so nothing registers
  // later. Meta is ctor-only for the same reason.
  registry_.SetMeta("mode", "daemon");
  registry_.SetMeta("format", InputFormatName(options_.default_format));
  registry_.SetMetaNum("threads", options_.threads);
  registry_.Register("daemon", &daemon_sink_);

  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    RebuildBankLocked();
    // Epoch 0: cold, evaluator-construction scaffolding only.
    PublishEpochLocked(/*refreshed=*/false, /*explore=*/false);
  }
  std::shared_ptr<const DaemonEpoch> e = current_epoch();
  evaluator_ = std::make_unique<ShardedEvaluator>(
      e->frozen.get(), e->num_symbols, other_, options_.threads,
      options_.default_format);
  // No attribution tables: they are sized to the query count, which
  // admissions change per epoch (see ShardedEvaluator::Rebind).
  evaluator_->AttachStats(&registry_, /*with_attribution=*/false);
  evaluator_->Rebind(e->frozen, e->num_symbols);
  bound_epoch_ = e->id;
  {
    // Warm start: serve an explored snapshot from the first document.
    std::lock_guard<std::mutex> lock(admit_mu_);
    PublishEpochLocked(/*refreshed=*/true, /*explore=*/true);
  }
}

DaemonCore::~DaemonCore() { DrainAndStop(); }

void DaemonCore::Start() {
  NW_CHECK_MSG(ok(), "starting a DaemonCore whose construction failed");
  NW_CHECK_MSG(!started_, "Start() may be called once");
  started_ = true;
  dispatcher_ = std::thread(&DaemonCore::DispatcherLoop, this);
  refresher_ = std::thread(&DaemonCore::RefresherLoop, this);
}

void DaemonCore::DrainAndStop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    refresh_stop_ = true;
  }
  refresh_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (refresher_.joinable()) refresher_.join();
}

void DaemonCore::RebuildBankLocked() {
  std::vector<Query> asts;
  asts.reserve(admitted_.size());
  for (const Admitted& a : admitted_) asts.push_back(a.ast);
  // Every pass, the shared product included: the daemon serves frozen
  // snapshots of it. No compile timeline, which would race the /metrics
  // renders (admissions record while scrapes read).
  bank_ = std::make_shared<OptimizedBank>(
      OptimizeBank(asts, alphabet_.size(), OptOptions::All()));
}

void DaemonCore::PublishEpochLocked(bool refreshed, bool explore) {
  if (explore) {
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
      // Names resolve read-only against the master alphabet (admit_mu_
      // is held, so nothing interns meanwhile); one the bank was not
      // compiled over steps as the catch-all, as it does when served.
      QueryEngine trainer(bank_->shared->num_symbols());
      trainer.set_other_symbol(other_);
      trainer.AddBank(bank_->shared.get());
      for (const ReplayDoc& d : replay) {
        trainer.RunAll(d.text, &alphabet_, d.format);
      }
    }
    bank_->shared->ExploreAll(options_.refresh_cap, nullptr);
  }
  // The alphabet only grows, so an unchanged size means the published
  // copy is current and this epoch shares it.
  if (published_names_ == nullptr ||
      published_names_->size() != alphabet_.size()) {
    published_names_ = std::make_shared<const Alphabet>(alphabet_);
  }
  auto epoch = std::make_shared<DaemonEpoch>(published_names_);
  epoch->id = next_epoch_id_++;
  epoch->refreshed = refreshed;
  for (const Admitted& a : admitted_) {
    epoch->qids.push_back(a.qid);
    epoch->query_texts.push_back(a.text);
  }
  epoch->bank = bank_;
  epoch->frozen = FrozenBank::FreezeShared(*bank_->shared);
  // The engine symbol space is the bank's, not the (possibly larger)
  // master alphabet's: names a failed ADMIT parse interned remap to the
  // catch-all until the next rebuild widens the bank.
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

void DaemonCore::RememberDoc(const std::string& text, InputFormat format) {
  if (options_.replay_capacity == 0) return;
  std::lock_guard<std::mutex> lock(replay_mu_);
  replay_.push_back(ReplayDoc{text, format});
  while (replay_.size() > options_.replay_capacity) replay_.pop_front();
}

Result<SubmitOutcome> DaemonCore::Submit(std::string doc,
                                         InputFormat format) {
  auto pending = std::make_unique<PendingDoc>();
  pending->text = std::move(doc);
  pending->format = format;
  pending->enqueue_us = PulseNowUs();
  std::future<SubmitOutcome> done = pending->done.get_future();
  RememberDoc(pending->text, format);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return Status::Error("daemon: shutting down, submit rejected");
    }
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    daemon_sink_.daemon_docs.Inc();
  }
  return done.get();
}

Result<uint64_t> DaemonCore::Admit(const std::string& query_text) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Stopwatch sw;
  Result<Query> q = ParseQuery(query_text, &alphabet_);
  if (!q.ok()) {
    return Status::Error("admit: " + q.status().message());
  }
  Query ast = q.Take();
  std::string normal = FormatQuery(ast, alphabet_);
  uint64_t qid = next_qid_++;
  admitted_.push_back(Admitted{qid, std::move(normal), std::move(ast)});
  RebuildBankLocked();
  // Cold publication: freezing the unexplored bank snapshots just the
  // initial state, so admission latency is compile-bound. Every step
  // misses to the shards' banks (correct, slower) until the refresh
  // nudged below publishes the explored snapshot.
  PublishEpochLocked(/*refreshed=*/false, /*explore=*/false);
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
  size_t index = admitted_.size();
  for (size_t i = 0; i < admitted_.size(); ++i) {
    if (admitted_[i].qid == qid) {
      index = i;
      break;
    }
  }
  if (index == admitted_.size()) {
    return Status::Error("retire: no admitted query with qid " +
                         std::to_string(qid));
  }
  if (admitted_.size() == 1) {
    return Status::Error(
        "retire: cannot retire the last query (a shared bank cannot be "
        "empty); admit a replacement first or SHUTDOWN");
  }
  admitted_.erase(admitted_.begin() + static_cast<ptrdiff_t>(index));
  RebuildBankLocked();
  PublishEpochLocked(/*refreshed=*/false, /*explore=*/false);
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

void DaemonCore::DispatcherLoop() {
  for (;;) {
    std::vector<std::unique_ptr<PendingDoc>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, fully drained
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // One epoch per batch: every document in it is served — and every
    // outcome oracle-checked — against the same published snapshot.
    std::shared_ptr<const DaemonEpoch> epoch = current_epoch();
    if (bound_epoch_ != epoch->id) {
      evaluator_->Rebind(epoch->frozen, epoch->num_symbols);
      bound_epoch_ = epoch->id;
    }
    // The evaluator streams one format per EvaluateCorpus call, so a
    // mixed batch dispatches as up to three calls, order preserved
    // within each format (results map back through `members`).
    const InputFormat kFormats[] = {InputFormat::kXml, InputFormat::kJson,
                                    InputFormat::kTrace};
    for (InputFormat format : kFormats) {
      std::vector<size_t> members;
      std::vector<std::string> corpus;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i]->format == format) {
          members.push_back(i);
          corpus.push_back(batch[i]->text);
        }
      }
      if (corpus.empty()) continue;
      evaluator_->set_format(format);
      std::vector<DocResult> results =
          evaluator_->EvaluateCorpus(corpus, epoch->alphabet,
                                     /*track_matches=*/true);
      uint64_t now_us = PulseNowUs();
      for (size_t j = 0; j < members.size(); ++j) {
        PendingDoc& doc = *batch[members[j]];
        SubmitOutcome outcome;
        outcome.epoch = epoch;
        outcome.result = std::move(results[j]);
        outcome.latency_us =
            now_us > doc.enqueue_us ? now_us - doc.enqueue_us : 0;
        doc.done.set_value(std::move(outcome));
      }
    }
  }
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
      std::lock_guard<std::mutex> lock(admit_mu_);
      PublishEpochLocked(/*refreshed=*/true, /*explore=*/true);
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
