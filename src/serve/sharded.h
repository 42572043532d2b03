// Parallel sharded streaming evaluation (ROADMAP: parallel sharded
// streams). One immutable FrozenBank and one immutable alphabet back N
// worker threads; each worker owns a private QueryEngine (run state is
// per-stream) and a private SharedBank that extends the snapshot for the
// steps it misses, and resolves names read-only against the shared
// alphabet (a name it lacks takes the catch-all). Documents are pulled off
// a shared atomic cursor, so shards load-balance dynamically, and every
// result is written to the document's own slot — the merged output is a
// pure function of the corpus, independent of thread count and
// scheduling (the differential tests in tests/serve_test.cc pin
// byte-identity against the single-stream SoA path at N ∈ {1, 2, 8}).
#ifndef NW_SERVE_SHARDED_H_
#define NW_SERVE_SHARDED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nw/alphabet.h"
#include "obs/pulse.h"
#include "query/engine.h"
#include "serve/frozen_bank.h"
#include "stream/token_stream.h"

namespace nw {

class QueryAttribution;
class StatsRegistry;
class Tracer;

/// One document's evaluation, in corpus order.
struct DocResult {
  /// Per-query acceptance of the whole document.
  std::vector<bool> accept;
  /// Per-query first-accept position (−1 = never), present only when
  /// match tracking was requested.
  std::vector<int64_t> first_match;
  /// Tagged positions the document streamed to.
  size_t positions = 0;
};

/// Aggregate counters of one EvaluateCorpus call, summed over shards.
struct ServeStats {
  size_t documents = 0;
  size_t positions = 0;
  /// Steps answered lock-free by the frozen snapshot.
  size_t frozen_hits = 0;
  /// Steps the snapshot did not cover, taken by a shard's own bank.
  size_t frozen_misses = 0;
  /// Worker threads the corpus was sharded across.
  size_t threads = 0;

  /// True once any step has been classified hit-or-miss. hit_rate() is
  /// only meaningful then; renderers print n/a (or JSON null) otherwise.
  bool has_traffic() const { return frozen_hits + frozen_misses > 0; }

  /// Fraction of steps served lock-free (1.0 on a fully-explored bank,
  /// and — by convention, so ratio tables stay finite — on zero traffic;
  /// gate on has_traffic() where the distinction matters).
  double hit_rate() const {
    size_t total = frozen_hits + frozen_misses;
    return total == 0 ? 1.0 : static_cast<double>(frozen_hits) / total;
  }
};

/// One shard's mutable run state over a snapshot: a private SharedBank
/// that extends it for the steps it misses and the engine stepping both.
/// A ShardRun is confined to one thread; the snapshot and the alphabet
/// are only read. EvaluateCorpus's workers keep one for every document
/// they pull; the daemon's connection threads build one per document.
class ShardRun {
 public:
  /// `frozen`, `sink` and `attr` must outlive the run; `sink` and `attr`
  /// (either may be null) must be this thread's single-writer instances.
  /// `num_symbols` and `other_symbol` configure the engine exactly like
  /// the single-stream CLI path.
  ShardRun(const FrozenBank* frozen, size_t num_symbols, Symbol other_symbol,
           bool track_matches, StatsSink* sink, QueryAttribution* attr);

  ShardRun(const ShardRun&) = delete;
  ShardRun& operator=(const ShardRun&) = delete;

  /// Streams one document through the whole bank, resolving names
  /// read-only against `alphabet`. With a sink, also tallies the
  /// shard-loop metrics: the document, its bytes and positions, and its
  /// busy µs.
  DocResult Evaluate(const std::string& doc, const Alphabet& alphabet,
                     InputFormat format);

  const QueryEngine& engine() const { return engine_; }
  /// µs spent inside Evaluate, summed over this run's documents.
  uint64_t busy_us() const { return busy_us_; }

 private:
  SharedBank bank_;
  QueryEngine engine_;
  StatsSink* sink_;
  bool track_matches_;
  uint64_t busy_us_ = 0;
};

/// Worker-threaded corpus evaluation over one frozen bank. Each
/// EvaluateCorpus call spawns up to `threads` fresh workers and joins
/// them before returning (no persistent pool — worker state is rebuilt
/// per call).
///
/// Invariants: the FrozenBank and the alphabet are never written while
/// serving, so workers read them without synchronization; all mutable
/// run state (engine, the bank extending the snapshot) is shard-private.
/// The evaluator itself is NOT re-entrant — call EvaluateCorpus from one
/// thread at a time.
class ShardedEvaluator {
 public:
  /// `frozen` must outlive the evaluator. `num_symbols` and
  /// `other_symbol` configure each worker engine exactly like the
  /// single-stream CLI path (out-of-space stream symbols remap to the
  /// catch-all). `threads` >= 1. `format` selects the tokenizer front
  /// end each worker streams documents through (stream/token_stream.h) —
  /// the ONLY thing that varies by format; sharding, stepping, stats,
  /// and attribution are format-blind.
  ShardedEvaluator(const FrozenBank* frozen, size_t num_symbols,
                   Symbol other_symbol, size_t threads,
                   InputFormat format = InputFormat::kXml);

  /// Streams every document of `corpus` through the whole query bank,
  /// sharded across the worker threads, and returns per-document results
  /// in corpus order. Every worker resolves names read-only against
  /// `alphabet` (no copy; a name it lacks takes the catch-all), which
  /// must cover the symbol space (size() >= num_symbols, checked by each
  /// worker's RunAll). With `track_matches`, per-query first-accept
  /// positions are recorded (costs an accept-bitset diff per position).
  std::vector<DocResult> EvaluateCorpus(const std::vector<std::string>& corpus,
                                        const Alphabet& alphabet,
                                        bool track_matches);

  /// Selects the tokenizer front end for subsequent EvaluateCorpus calls
  /// (a mixed corpus is evaluated as one call per format). Not safe
  /// concurrently with EvaluateCorpus.
  void set_format(InputFormat format) { format_ = format; }

  /// Counters of the most recent EvaluateCorpus call.
  const ServeStats& stats() const { return stats_; }

  /// Attaches NWStats: the evaluator creates one private StatsSink per
  /// worker shard, registers each with `registry` as "shard/N", and from
  /// then on every EvaluateCorpus wires each worker's engine, tokenizer,
  /// and bank to its shard's sink and additionally records the
  /// shard-loop metrics (documents and bytes pulled, busy vs. queue-wait
  /// time). Also creates one NWProf QueryAttribution table per shard and
  /// registers each with the registry, so per-query match/accept/
  /// escalation costs are attributed on the frozen path too (the
  /// registry's render merges the shard tables). Sinks and tables are
  /// cumulative across calls and owned by the evaluator, which must
  /// therefore outlive any registry render. Call once, before the first
  /// EvaluateCorpus. `with_attribution = false` skips the per-query
  /// tables.
  void AttachStats(StatsRegistry* registry, bool with_attribution = true);

  /// Live in-flight progress of the current EvaluateCorpus call (corpus
  /// cursor, documents/bytes completed), readable mid-run by an NWPulse
  /// sampler while the shards write. Re-armed at the start of each call;
  /// `active` drops to false when the call returns.
  const PulseProgress& progress() const { return progress_; }

  /// Attaches an opt-in span tracer (obs/trace.h): each document then
  /// writes one "doc" span (shard, corpus index, positions, bytes).
  /// nullptr (the default) disables tracing. `tracer` must outlive the
  /// evaluator's EvaluateCorpus calls.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  const FrozenBank* frozen_;
  size_t num_symbols_;
  Symbol other_;
  size_t threads_;
  InputFormat format_;
  ServeStats stats_;
  /// One sink per shard (see AttachStats); empty when stats are off.
  std::vector<std::unique_ptr<StatsSink>> sinks_;
  /// One NWProf attribution table per shard, parallel to sinks_.
  std::vector<std::unique_ptr<QueryAttribution>> attrs_;
  /// Multi-writer progress cells (shards fetch_add per document) — the
  /// one place the serve loop deviates from the single-writer metric
  /// discipline, because a cursor is shared by construction.
  PulseProgress progress_;
  Tracer* tracer_ = nullptr;
};

/// Splits an XML document at top-level element boundaries: each returned
/// chunk is one complete top-level element (with any immediately
/// preceding top-level text/stray markup). Concatenating the chunks
/// yields the input. Intended for sharding one huge record-stream
/// document (e.g. a <feed> of entries with the envelope stripped) as if
/// each record were its own document — note the semantics change:
/// queries then match per record, not across records (an `a then b`
/// spanning two records no longer matches). Unclosed opens spill into
/// the trailing chunk; a document with no top-level structure comes back
/// as a single chunk.
std::vector<std::string> SplitTopLevel(const std::string& xml);

/// NWStats-reporting overload: additionally records the chunk count, the
/// largest chunk, and the chunk-size distribution into `*stats` — the
/// shard-skew early warning (one giant record caps parallel speedup).
/// `stats` must not be null; the plain overload is the disabled path.
std::vector<std::string> SplitTopLevel(const std::string& xml,
                                       StatsSink* stats);

/// Format-selecting overloads: identical cut rule (a return leaving the
/// stream at depth 0 ends a chunk) driven by the chosen front end's
/// tokenizer, so for JSON a top-level record array's elements become the
/// chunks (the anonymous envelope streams silently — see json/json.h)
/// and for traces each top-level frame does. Concatenating the chunks
/// yields the input for every format; re-tokenizing a chunk that sliced
/// a JSON envelope open can differ from the whole-document stream (the
/// record that lost its envelope gains a `#obj`/`#arr` wrapper) — the
/// same per-record semantics change the XML overload documents.
std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format);
std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format, StatsSink* stats);

}  // namespace nw

#endif  // NW_SERVE_SHARDED_H_
