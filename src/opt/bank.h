// Shared bank compilation (ROADMAP item 2): K deterministic query
// automata over one alphabet fuse into a single product automaton whose
// states are interned K-tuples of component states, with a per-state
// accept bitset recording which queries accept there. The engine then
// steps ONE transition table per stream position instead of K, and pushes
// ONE StateId per call frame instead of K — both the per-position work and
// the resident run state become independent of the bank size.
//
// The product is explored lazily and memoized: the first time a
// (state, symbol) or (state, frame, symbol) combination is stepped, the
// K component transitions run once and the resulting tuple is interned;
// every later visit is a single table lookup. Only the product states a
// real stream reaches are ever materialized, which is what makes the
// construction affordable — the full product is exponential in K, but
// document streams drive the component automata through strongly
// correlated trajectories (they all track the same ancestor chain), so
// the reachable product is small. A hard state cap turns pathological
// blow-ups into a loud failure instead of an OOM; callers can always fall
// back to the per-query SoA path.
//
// A bank may also extend an immutable FrozenBank snapshot
// (serve/frozen_bank.h). Ids below the snapshot's num_states() then name
// snapshot states, and the bank numbers the states it interns from there.
// Interning asks the snapshot first, so a step that lands on a snapshot
// tuple returns the snapshot's id and a serving engine is back on the
// snapshot's lock-free tables. Steps taken from snapshot states memoize
// sparsely: the snapshot itself is never copied.
#ifndef NW_OPT_BANK_H_
#define NW_OPT_BANK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nwa/nwa.h"

namespace nw {

// The NWStats sink (obs/stats.h), the NWProf timeline and attribution
// table (obs/prof.h) and the snapshot a bank may extend
// (serve/frozen_bank.h) are held by pointer only, so the opt layer's
// header stays free of observability and serving includes.
struct StatsSink;
class CompileTimeline;
class QueryAttribution;
class FrozenBank;

class SharedBank {
 public:
  /// All automata must share one symbol space and have initial states set.
  /// The pointees must outlive the bank. At least one automaton.
  explicit SharedBank(std::vector<const Nwa*> autos);

  /// A bank that extends `frozen` over the snapshot's own automata. The
  /// bank owns only the states the snapshot lacks: a serving shard's
  /// private space for the steps the snapshot never saw. `frozen` (and
  /// its automata) must outlive the bank.
  explicit SharedBank(const FrozenBank* frozen);

  /// Number of component query automata K.
  size_t num_queries() const { return autos_.size(); }
  /// Size of the shared symbol space Σ.
  size_t num_symbols() const { return num_symbols_; }
  /// Interned tuple of the component initial states (the snapshot's id
  /// for it when the bank extends one).
  StateId initial() const { return initial_; }
  /// Product state ids in use: the snapshot's, then the bank's own.
  size_t num_states() const { return base_ + live_.size(); }
  /// The snapshot this bank extends, or nullptr.
  const FrozenBank* frozen() const { return frozen_; }
  /// First id the bank owns: the snapshot's state count, 0 without one.
  StateId first_own_state() const { return base_; }

  /// Attaches an NWStats sink (obs/stats.h): the bank then counts interned
  /// product states and memo hits/misses per step. A bank that extends a
  /// snapshot counts its steps instead: each into overflow_steps, and its
  /// outcome into overflow_mapbacks (it landed on a snapshot state) or
  /// overflow_escalations (on a state the bank owns). `sink` must outlive
  /// the bank and be single-writer — banks are already confined to one
  /// thread (they memoize while streaming), so the engine's own sink is
  /// the natural choice. Off (nullptr) by default: the disabled path is
  /// one branch on a pointer constant for the stream.
  void set_stats(StatsSink* sink) { stats_ = sink; }

  /// Attaches an NWProf attribution table (obs/prof.h) to a bank that
  /// extends a snapshot: every escalation then increments the escalations
  /// counter of each query whose run is still live in the escalated
  /// state — those queries are what keeps the stream off the snapshot.
  /// Same single-writer discipline as the sink. Off by default.
  void set_attribution(QueryAttribution* attr);

  // -- Stepping. Mirrors the Nwa single-position step API, but states are
  // product-tuple ids (snapshot or own) and the methods memoize (hence
  // non-const). A dead component parks kNoState in its tuple slot; the
  // all-dead tuple is a regular absorbing state, so these never return
  // kNoState.

  /// Internal position: memoized product δi.
  StateId StepInternal(StateId q, Symbol a);
  /// Writes the frame tuple to push to `*hier_out` (one StateId — the
  /// interned tuple of the K hierarchical-edge states).
  StateId StepCall(StateId q, Symbol a, StateId* hier_out);
  /// `hier` is the popped frame tuple, or kNoState for a pending return
  /// (each component then reads its own hier_initial).
  StateId StepReturn(StateId q, StateId hier, Symbol a);

  // -- Exploration + freeze API (serve/frozen_bank.h). The serving layer
  // pre-explores the product and snapshots it into an immutable
  // FrozenBank; a bank that extends a snapshot is refused by both. --

  /// Drives the lazy product to a fixed point over the whole alphabet:
  /// every (state, symbol) internal and call step, and every return step
  /// over (state, pushable frame, symbol) — where the pushable frames are
  /// exactly the call-hier targets plus the pending-return sentinel — is
  /// memoized. Afterwards a frozen snapshot cannot miss on any stream
  /// whose symbols are in range. Stops early and returns false if the
  /// closure would exceed `max_states` (the partial exploration is kept;
  /// a snapshot then serves what was reached and the banks that extend it
  /// step the rest).
  /// With a timeline (obs/prof.h) the call records one "explore" phase:
  /// wall µs plus the product state count before and after.
  bool ExploreAll(size_t max_states, CompileTimeline* timeline = nullptr);

  /// The component automata, in query order (aliases, not owned).
  const std::vector<const Nwa*>& autos() const { return autos_; }

  // -- Per-state facts of the states the bank owns (q >=
  // first_own_state()), computed once at interning time. A snapshot's
  // states answer these from the FrozenBank itself. --

  /// Pointer to the K component states of tuple `q` (valid until the next
  /// interning mutation).
  const StateId* tuple(StateId q) const {
    return tuples_.data() + (q - base_) * autos_.size();
  }
  /// Accept bitset: bit (w*64+b) of word w = query (w*64+b) accepting.
  const uint64_t* accepts(StateId q) const {
    return accept_.data() + (q - base_) * words_;
  }
  /// Words per accept bitset (= ceil(num_queries / 64)).
  size_t accept_words() const { return words_; }
  /// Is component query `id` accepting in product state `q`?
  bool accepting(StateId q, size_t id) const {
    return (accepts(q)[id / 64] >> (id % 64)) & 1;
  }
  /// Number of still-live component runs in state `q`.
  size_t live(StateId q) const { return live_[q - base_]; }
  /// Component query `id`'s state in tuple `q` (kNoState = that run died).
  StateId component(StateId q, size_t id) const { return tuple(q)[id]; }

  // Non-mutating memo lookups, kNoState = that step was never taken.
  // These are what FrozenBank::Freeze snapshots.

  StateId PeekInternal(StateId q, Symbol a) const {
    return rows_[q * num_symbols_ + a].internal;
  }
  StateId PeekCallLinear(StateId q, Symbol a) const {
    return rows_[q * num_symbols_ + a].call_lin;
  }
  StateId PeekCallHier(StateId q, Symbol a) const {
    return rows_[q * num_symbols_ + a].call_hier;
  }

  /// FNV-1a over a K-component span — the interning hash. Shared with
  /// FrozenBank::FindTuple so snapshot lookups agree with interning.
  static uint64_t TupleHash(const StateId* tuple, size_t k);

  /// Packs a product return lookup (24-bit states, 16-bit symbol); a
  /// pending frame (hier == kNoState) packs as the reserved all-ones
  /// hier value. Shared with FrozenBank's sorted return table so the
  /// snapshot and the live memo can never disagree on layout.
  static uint64_t PackReturnKey(StateId q, StateId hier, Symbol a);

  /// One memoized return transition (hier == kNoState for the pending-
  /// return row), unpacked for snapshotting.
  struct MemoReturn {
    StateId from;
    StateId hier;
    Symbol symbol;
    StateId target;
  };
  /// Every memoized return transition, in unspecified order.
  std::vector<MemoReturn> MemoizedReturns() const;

 private:
  /// Interned product ids must fit the 24-bit return-key packing, with the
  /// top value reserved for "pending" frames.
  static constexpr StateId kMaxStates = (1u << 24) - 1;

  /// Memoized δi and δc of one (state, symbol); kNoState = not computed
  /// yet (a computed result is always a valid id, never kNoState).
  struct Row {
    StateId internal = kNoState;
    StateId call_lin = kNoState;
    StateId call_hier = kNoState;
  };

  SharedBank(std::vector<const Nwa*> autos, const FrozenBank* frozen);

  StateId Intern(const std::vector<StateId>& tuple);
  /// Component states of any id, the snapshot's tuple for its states.
  const StateId* Components(StateId q) const;
  /// The memo row of (q, a): dense for own states, sparse for snapshot
  /// states. The reference dies with the next Intern.
  Row& MemoRow(StateId q, Symbol a);
  /// NWStats/NWProf tally of one step whose (linear) result is `result`
  /// (see set_stats); returns `result`.
  StateId Counted(bool memo_hit, StateId result);
  /// ExploreAll's fixed-point loop, split out so the public entry can
  /// clock it as one NWProf phase.
  bool ExploreFixpoint(size_t max_states);

  std::vector<const Nwa*> autos_;
  /// The snapshot this bank extends (nullptr: none), and its state count,
  /// which is the bank's first own id.
  const FrozenBank* frozen_;
  StateId base_;
  size_t num_symbols_;
  size_t words_;
  StateId initial_;
  // Own states, indexed by id - base_.
  std::vector<StateId> tuples_;  ///< K components per state, state-major
  std::unordered_map<uint64_t, std::vector<StateId>> buckets_;
  std::vector<uint64_t> accept_;
  std::vector<uint32_t> live_;
  std::vector<Row> rows_;  ///< [(q-base_)*|Σ|+a]
  /// Memo rows of snapshot states, keyed q*|Σ|+a: only the steps the
  /// snapshot missed ever land here.
  std::unordered_map<uint64_t, Row> snapshot_rows_;
  std::unordered_map<uint64_t, StateId> returns_;  ///< any ids
  /// NWStats sink, or nullptr when observability is off (see set_stats).
  StatsSink* stats_ = nullptr;
  /// NWProf attribution table, or nullptr (see set_attribution).
  QueryAttribution* attr_ = nullptr;
};

/// Convenience spelling of the tentpole API: compiles the bank of
/// already-lowered query automata into one shared product automaton.
inline SharedBank CompileBank(std::vector<const Nwa*> autos) {
  return SharedBank(std::move(autos));
}

}  // namespace nw

#endif  // NW_OPT_BANK_H_
