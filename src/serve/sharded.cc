#include "serve/sharded.h"

#include <atomic>
#include <thread>

#include "json/json.h"
#include "obs/prof.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nw {

ShardRun::ShardRun(const FrozenBank* frozen, size_t num_symbols,
                   Symbol other_symbol, bool track_matches, StatsSink* sink,
                   QueryAttribution* attr)
    : bank_(frozen),
      engine_(num_symbols),
      sink_(sink),
      track_matches_(track_matches) {
  if (other_symbol != Alphabet::kNoSymbol) {
    engine_.set_other_symbol(other_symbol);
  }
  engine_.set_track_matches(track_matches);
  engine_.AddFrozen(frozen, &bank_);
  if (sink != nullptr) {
    engine_.set_stats(sink);
    bank_.set_stats(sink);
  }
  if (attr != nullptr) {
    engine_.set_attribution(attr);
    bank_.set_attribution(attr);
  }
}

DocResult ShardRun::Evaluate(const std::string& doc, const Alphabet& alphabet,
                             InputFormat format) {
  Stopwatch doc_sw;
  size_t before = engine_.positions();
  DocResult r;
  r.accept = engine_.RunAll(doc, &alphabet, format);
  r.positions = engine_.positions() - before;
  if (track_matches_) {
    r.first_match.resize(engine_.num_queries());
    for (size_t q = 0; q < r.first_match.size(); ++q) {
      r.first_match[q] = engine_.first_match(q);
    }
  }
  uint64_t doc_us = static_cast<uint64_t>(doc_sw.ElapsedUs());
  busy_us_ += doc_us;
  if (sink_ != nullptr) {
    sink_->shard_docs.Inc();
    sink_->shard_bytes.Add(doc.size());
    sink_->shard_positions.Add(r.positions);
    // Published per document (not at join) so a sampler's interval busy
    // delta is live utilization, not an end-of-run step.
    sink_->shard_busy_us.Add(doc_us);
  }
  return r;
}

ShardedEvaluator::ShardedEvaluator(const FrozenBank* frozen,
                                   size_t num_symbols, Symbol other_symbol,
                                   size_t threads, InputFormat format)
    : frozen_(frozen),
      num_symbols_(num_symbols),
      other_(other_symbol),
      threads_(threads),
      format_(format) {
  NW_CHECK_MSG(threads >= 1, "sharded evaluation needs at least one thread");
  NW_CHECK_MSG(frozen->num_symbols() == num_symbols,
               "frozen bank symbol space mismatch");
}

void ShardedEvaluator::AttachStats(StatsRegistry* registry,
                                   bool with_attribution) {
  NW_CHECK_MSG(sinks_.empty(), "AttachStats() may be called once");
  sinks_.reserve(threads_);
  if (with_attribution) attrs_.reserve(threads_);
  for (size_t w = 0; w < threads_; ++w) {
    sinks_.push_back(std::make_unique<StatsSink>());
    registry->Register("shard/" + std::to_string(w), sinks_[w].get());
    if (!with_attribution) continue;
    attrs_.push_back(
        std::make_unique<QueryAttribution>(frozen_->num_queries()));
    registry->RegisterAttribution(attrs_[w].get());
  }
}

std::vector<DocResult> ShardedEvaluator::EvaluateCorpus(
    const std::vector<std::string>& corpus, const Alphabet& alphabet,
    bool track_matches) {
  std::vector<DocResult> results(corpus.size());
  // The shared cursor doubles as the NWPulse progress hook: a sampler
  // thread reads it (and docs/bytes done) mid-run via progress().
  progress_.Reset(corpus.size());
  std::atomic<uint64_t>& cursor = progress_.cursor;
  std::atomic<size_t> hits{0}, misses{0}, total_positions{0};
  // Each worker owns every piece of mutable state it touches: its
  // ShardRun (run state and the bank that extends the snapshot) and its
  // NWStats shard sink (single-writer by construction: shard indexes are
  // unique, so each sink has exactly one writing thread while the
  // registry's readers merge relaxed-atomic snapshots). The FrozenBank
  // and the alphabet are shared and only read.
  auto worker = [&](size_t shard) {
    StatsSink* sink = sinks_.empty() ? nullptr : sinks_[shard].get();
    // Shard w writes only attribution table w, so each table keeps the
    // sinks' single-writer discipline; renders merge across shards.
    QueryAttribution* attr = attrs_.empty() ? nullptr : attrs_[shard].get();
    Stopwatch wall;
    // Sinks are cumulative across EvaluateCorpus calls; ServeStats is
    // per-call, so the frozen hit/miss contribution is a delta.
    const size_t hits0 = sink == nullptr ? 0 : sink->frozen_hits.value();
    const size_t miss0 = sink == nullptr ? 0 : sink->frozen_misses.value();
    ShardRun run(frozen_, num_symbols_, other_, track_matches, sink, attr);
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= corpus.size()) break;
      TraceSpan span(tracer_, "doc", "corpus/" + std::to_string(i));
      DocResult& r = results[i];
      r = run.Evaluate(corpus[i], alphabet, format_);
      progress_.docs_done.fetch_add(1, std::memory_order_relaxed);
      progress_.bytes_done.fetch_add(corpus[i].size(),
                                     std::memory_order_relaxed);
      span.Note("shard", shard);
      span.Note("positions", r.positions);
      span.Note("bytes", corpus[i].size());
      if (tracer_ != nullptr && sink != nullptr) {
        tracer_->WriteCounters(shard, *sink);
      }
    }
    const QueryEngine& engine = run.engine();
    hits.fetch_add(engine.frozen_hits() - hits0, std::memory_order_relaxed);
    misses.fetch_add(engine.frozen_misses() - miss0,
                     std::memory_order_relaxed);
    total_positions.fetch_add(engine.positions(),
                              std::memory_order_relaxed);
    if (sink != nullptr) {
      // Busy time went in per document; only the wait residue lands at
      // join time.
      uint64_t wall_us = static_cast<uint64_t>(wall.ElapsedUs());
      uint64_t busy_us = run.busy_us();
      sink->shard_wait_us.Add(wall_us > busy_us ? wall_us - busy_us : 0);
    }
  };
  // No point spawning more workers than documents; one worker still runs
  // for an empty corpus so stats come back well-defined.
  size_t n = threads_;
  if (corpus.size() < n) n = corpus.size() > 0 ? corpus.size() : 1;
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (size_t w = 0; w < n; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  progress_.active.store(false, std::memory_order_relaxed);
  stats_ = ServeStats{};
  stats_.documents = corpus.size();
  stats_.positions = total_positions.load();
  stats_.frozen_hits = hits.load();
  stats_.frozen_misses = misses.load();
  stats_.threads = n;
  return results;
}

namespace {

// Driven by the real tokenizer (the TokenStream's pos() exposes token
// byte boundaries), so a chunk boundary can never fall inside a
// construct the tokenizer treats as one token and the two can never
// drift. Depth is tracked from the token kinds exactly as an engine
// would: calls push, returns pop (clamped — a stray close at top level
// becomes its own chunk). A boundary is cut whenever a return leaves
// the stream at depth 0; top-level text attaches to the FOLLOWING
// element's chunk.
template <typename Stream>
std::vector<std::string> SplitWithStream(const std::string& text) {
  std::vector<std::string> out;
  // Only token kinds matter here: names resolve read-only against an
  // empty alphabet, so splitting interns and allocates nothing per name.
  static const Alphabet kNoNames;
  Stream stream(text, kNoNames);
  TaggedSymbol t;
  size_t chunk_start = 0;
  size_t depth = 0;
  while (stream.Next(&t)) {
    switch (t.kind) {
      case Kind::kCall:
        ++depth;
        break;
      case Kind::kReturn:
        if (depth > 0) --depth;
        if (depth == 0) {
          out.push_back(text.substr(chunk_start, stream.pos() - chunk_start));
          chunk_start = stream.pos();
        }
        break;
      case Kind::kInternal:
        break;
    }
  }
  // Trailing top-level text and unclosed opens spill into a final chunk.
  if (chunk_start < text.size()) out.push_back(text.substr(chunk_start));
  if (out.empty()) out.push_back(text);
  return out;
}

}  // namespace

std::vector<std::string> SplitTopLevel(const std::string& xml) {
  return SplitWithStream<XmlTokenStream>(xml);
}

std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format) {
  switch (format) {
    case InputFormat::kXml:
      return SplitWithStream<XmlTokenStream>(text);
    case InputFormat::kJson:
      return SplitWithStream<JsonTokenStream>(text);
    case InputFormat::kTrace:
      return SplitWithStream<TraceTokenStream>(text);
  }
  NW_CHECK_MSG(false, "unreachable: unknown input format");
  return {};
}

std::vector<std::string> SplitTopLevel(const std::string& xml,
                                       StatsSink* stats) {
  return SplitTopLevel(xml, InputFormat::kXml, stats);
}

std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format, StatsSink* stats) {
  NW_CHECK_MSG(stats != nullptr,
               "the reporting SplitTopLevel overload needs a sink; call "
               "the plain overload when stats are off");
  std::vector<std::string> out = SplitTopLevel(text, format);
  stats->split_chunks.Add(out.size());
  for (const std::string& chunk : out) {
    stats->split_max_chunk_bytes.SetMax(chunk.size());
    stats->split_chunk_bytes.Record(chunk.size());
  }
  return out;
}

}  // namespace nw
