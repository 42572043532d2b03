// Batched streaming query evaluation. A QueryEngine registers K compiled
// deterministic NWAs and runs all of them over ONE tagged stream in a
// single pass. Two execution paths share the streaming interface:
//
//  * SoA path (Add): per position the engine advances K linear states
//    stored in a struct-of-arrays bank, and per call position pushes ONE
//    shared stack frame holding the K hierarchical-edge states
//    contiguously. K queries cost one stream traversal instead of K, and
//    the resident run state is K·(depth+1) StateIds — the paper's §3.2
//    depth-bounded-memory guarantee, amortized across the query bank.
//    The test suites keep it as the oracle for the product path.
//  * Product path (AddBank, AddFrozen): the optimizer's product automaton
//    (opt/bank.h) collapses the whole bank into ONE state machine, so per
//    position the engine steps a single transition table and pushes a
//    single StateId per call frame — per-position work and resident state
//    become independent of K. Per-query acceptance reads the product
//    state's accept bitset. When the bank extends an immutable snapshot
//    (serve/frozen_bank.h), a step from a snapshot state first reads the
//    snapshot's tables lock-free — safe under any number of threads, each
//    with its own engine and bank — and only what the snapshot does not
//    cover steps the bank, so coverage gaps cost throughput, never
//    correctness. Frozen hit/miss counters feed the serving stats.
//
// An optional match-position tap records, per query, the number of stream
// positions consumed when the query was first observed accepting — the
// "where did it match" answer the nwquery CLI reports (ROADMAP item 4).
#ifndef NW_QUERY_ENGINE_H_
#define NW_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "nw/nested_word.h"
#include "nwa/nwa.h"
#include "obs/stats.h"
#include "stream/token_stream.h"
#include "xml/xml.h"

namespace nw {

// The shared-bank product (opt/bank.h) and the serving layer's frozen
// snapshot (serve/frozen_bank.h) live layers above; the engine only holds
// pointers to them, so the base query layer's headers stay free of upward
// includes.
class SharedBank;
class FrozenBank;

class QueryEngine {
 public:
  /// All registered automata must be over the same [0, num_symbols)
  /// symbol space.
  explicit QueryEngine(size_t num_symbols) : num_symbols_(num_symbols) {}

  /// Registers a compiled query; returns its dense id. `a` must outlive
  /// the engine. Registration invalidates any in-progress stream (shared
  /// frames are sized to the bank): call BeginStream() before feeding
  /// more. Results of a completed stream stay readable. Mutually
  /// exclusive with AddBank().
  size_t Add(const Nwa* a);

  /// Registers a shared-bank product automaton compiled from the whole
  /// query bank (opt/bank.h); the engine then takes the product path.
  /// `bank` must outlive the engine and is mutated while streaming (its
  /// transitions memoize on first use), so it is confined to this
  /// engine's thread. If the bank extends a snapshot, the engine reads
  /// the snapshot first (see AddFrozen). Mutually exclusive with Add(),
  /// and at most one bank.
  void AddBank(SharedBank* bank);

  /// AddBank() for a bank built as SharedBank(frozen): checks that `bank`
  /// extends `frozen` (serve/frozen_bank.h), then registers it. `frozen`
  /// is immutable and may back any number of engines concurrently; each
  /// engine needs its own bank. Both must outlive the engine.
  void AddFrozen(const FrozenBank* frozen, SharedBank* bank);

  /// Stream symbols >= num_symbols() (names the queries were not
  /// compiled over, whether interned later or absent from a read-only
  /// alphabet) are remapped to this in-range catch-all before stepping.
  /// Without one, out-of-range symbols abort.
  void set_other_symbol(Symbol s);

  /// Enables the match-position tap: per position per query, acceptance
  /// is checked so first_match() can answer. Off by default — the check
  /// costs O(K) per position on the SoA path (a bitset diff on the
  /// product path), which throughput-sensitive callers should not pay
  /// unasked.
  void set_track_matches(bool on) { track_matches_ = on; }

  /// Attaches an NWStats sink (obs/stats.h): every completed RunAll then
  /// records the document's latency, positions, and execution path into
  /// it, and the streaming RunAll threads the sink through to the
  /// tokenizer. `sink` must outlive the engine and be this engine's
  /// private instance (single-writer; the serving layer hands each shard
  /// its own). Without a sink only the always-on frozen hit/miss
  /// counters accrue (into engine-owned counters), so the disabled
  /// path is one branch on a flag that is constant for the stream —
  /// query results are byte-identical either way. The bank keeps its own
  /// sink (SharedBank::set_stats).
  void set_stats(StatsSink* sink);

  /// Attaches an NWProf per-query attribution table (obs/prof.h): every
  /// completed RunAll then increments the table's doc/position totals
  /// (pinned to the sink's engine_docs/engine_positions) and each
  /// accepted query's match_docs; with set_track_matches(true) the
  /// match-latch pass additionally tallies per-query accept-set
  /// observations (one per position the query was seen accepting, plus
  /// the pre-input check) — identical on the SoA and product paths, with
  /// or without a snapshot. The table must be sized to this engine's
  /// bank (attach after registering queries), outlive the engine, and be
  /// this engine's private single-writer instance, exactly like the
  /// stats sink.
  void set_attribution(QueryAttribution* attr);

  size_t num_queries() const;
  size_t num_symbols() const { return num_symbols_; }

  /// Starts a new traversal: resets every query's run state to its
  /// initial state and bumps the traversal counter.
  void BeginStream();

  /// Consumes one position for every query at once. Returns the number
  /// of still-live runs (0 = every query is dead; the caller may stop
  /// early, acceptance can no longer change).
  size_t Feed(TaggedSymbol t);

  /// Would query `id` accept the stream fed so far?
  bool Accepting(size_t id) const;
  bool dead(size_t id) const;

  /// Number of positions consumed in the current stream when query `id`
  /// was first observed accepting (0 = accepting before any input), or
  /// -1 if it has not accepted yet. Requires set_track_matches(true).
  int64_t first_match(size_t id) const { return first_match_[id]; }

  /// Convenience: one traversal of `n`; element [id] of the result is
  /// query id's acceptance.
  std::vector<bool> RunAll(const NestedWord& n);

  /// Streaming form: tokenizes `xml_text` position by position straight
  /// into the bank — no materialized NestedWord, so total memory really
  /// is the O(K·depth) run state. Names are resolved read-only against
  /// `*alphabet`, which is never written (so shards may share one): a
  /// name it lacks, like one it holds at an id >= num_symbols(), steps as
  /// the catch-all (set_other_symbol). `*alphabet` must cover the symbol
  /// space (size() >= num_symbols(); checked).
  std::vector<bool> RunAll(const std::string& xml_text,
                           const Alphabet* alphabet);

  /// Same, selecting the front end by format (stream/token_stream.h).
  /// Tokenization is the ONLY thing that varies: past the TokenStream
  /// every format takes the identical SoA/product stepping code.
  std::vector<bool> RunAll(const std::string& text, const Alphabet* alphabet,
                           InputFormat format);

  /// Product-path steps answered by the immutable snapshot (lock-free).
  /// Lives in the attached stats sink (an engine-owned counter when none
  /// was attached), so the serving layer reads one source of truth.
  size_t frozen_hits() const { return hits_->value(); }
  /// Product-path steps the snapshot did not cover, which the bank took.
  /// hits + misses = positions fed with a snapshot attached; without one
  /// neither counts.
  size_t frozen_misses() const { return misses_->value(); }

  /// Number of BeginStream() calls — the "K queries, one traversal"
  /// witness asserted by tests and reported by the benchmarks.
  size_t traversals() const { return traversals_; }
  /// Total positions consumed across all traversals.
  size_t positions() const { return positions_; }

  /// Shared stack frames currently held (= pending calls of the stream).
  size_t StackDepth() const { return stack_.size() / FrameWidth(); }
  /// High-water mark of StackDepth() within the current stream (reset by
  /// BeginStream), so per-document statistics stay per-document.
  size_t MaxStackDepth() const { return max_frames_; }
  /// Peak resident run-state footprint of the current stream, in
  /// StateIds: K linear states plus K per shared stack frame at the
  /// stack's high-water mark — O(K·depth) on the SoA path, O(depth) on
  /// the product path (one product state per frame), independent of
  /// stream length either way.
  size_t ResidentStates() const {
    if (bank_ != nullptr) return 1 + max_frames_;
    return state_.size() + autos_.size() * max_frames_;
  }

 private:
  size_t AtLeastOne() const { return autos_.empty() ? 1 : autos_.size(); }
  /// StateIds per shared stack frame: K on the SoA path, 1 on the
  /// product path (a frame is one interned product tuple).
  size_t FrameWidth() const { return bank_ != nullptr ? 1 : AtLeastOne(); }
  /// Product path: is the current state one of the snapshot's? Its
  /// per-state facts then come from the snapshot, every other state's
  /// from the bank. Always false without a snapshot.
  bool InSnapshot() const { return bank_state_ < snapshot_states_; }
  /// The current product state's live count and accept bitset.
  size_t ProductLive() const;
  const uint64_t* ProductAccepts() const;
  /// Frozen hit/miss tally of one product step, where `next` is the
  /// snapshot's answer (kNoState: not covered, or no snapshot). Returns
  /// true when the bank must take the step.
  bool Missed(StateId next) {
    if (next != kNoState) {
      hits_->Inc();
      return false;
    }
    if (frozen_ != nullptr) misses_->Inc();
    return true;
  }
  /// Records first-accept positions for queries newly observed accepting.
  void LatchMatches();
  /// NWStats/NWProf per-document record shared by the RunAll overloads:
  /// latency histogram, position/document counters, the path-taken
  /// counter, and (with an attribution table) the per-query match tally
  /// over `results`.
  void RecordDocStats(uint64_t latency_us, size_t doc_positions,
                      const std::vector<bool>& results);
  /// The streaming RunAll body, templated over the TokenStream concept
  /// (stream/token_stream.h) — the seam that keeps the engine free of
  /// per-format forks.
  template <typename Stream>
  std::vector<bool> RunStream(const std::string& text,
                              const Alphabet& alphabet);
  /// Per-query acceptance of the stream fed so far.
  std::vector<bool> Results() const;

  size_t num_symbols_;
  Symbol other_ = Alphabet::kNoSymbol;
  std::vector<const Nwa*> autos_;
  SharedBank* bank_ = nullptr;
  /// The snapshot bank_ extends (nullptr: none), and its state count.
  const FrozenBank* frozen_ = nullptr;
  StateId snapshot_states_ = 0;
  /// Current product state: a snapshot id below snapshot_states_, else
  /// one the bank owns.
  StateId bank_state_ = kNoState;
  /// Linear state per query; kNoState = that query's run is dead.
  std::vector<StateId> state_;
  /// Shared hierarchical stack, frame-major: the frame pushed by the
  /// f-th pending call occupies [f*W, (f+1)*W) for W = FrameWidth().
  std::vector<StateId> stack_;
  size_t max_frames_ = 0;
  size_t traversals_ = 0;
  size_t positions_ = 0;
  /// Positions consumed in the current stream (reset by BeginStream).
  size_t stream_pos_ = 0;
  /// Runs not yet dead — maintained incrementally by Feed.
  size_t live_ = 0;
  bool track_matches_ = false;
  std::vector<int64_t> first_match_;
  /// Product path: accept bits already latched (word-parallel diff).
  std::vector<uint64_t> seen_accepts_;
  /// NWStats: `stats_` is the attached sink, or null. The frozen
  /// hit/miss counters always accrue: into the sink's cells when one is
  /// attached, else into two engine-owned counters (not a whole sink,
  /// whose histograms would make every engine tens of KB larger).
  /// `stats_enabled_` gates everything beyond those counters — document
  /// latency clocks, path counters, tokenizer tallies.
  Counter own_hits_;
  Counter own_misses_;
  Counter* hits_ = &own_hits_;
  Counter* misses_ = &own_misses_;
  StatsSink* stats_ = nullptr;
  bool stats_enabled_ = false;
  /// NWProf per-query attribution, or nullptr when off (the default) —
  /// the same branch-on-a-constant-pointer discipline as the sink.
  QueryAttribution* attr_ = nullptr;
};

}  // namespace nw

#endif  // NW_QUERY_ENGINE_H_
