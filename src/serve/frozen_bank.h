// Frozen shared banks for parallel serving (ROADMAP: parallel sharded
// streams; the "eager/frozen bank" follow-on of the NWOpt bank).
//
// A SharedBank (opt/bank.h) is mutated while streaming — its product
// transitions memoize on first use — so it cannot back more than one
// concurrent stream. The serving layer therefore snapshots it:
//
//  * FrozenBank — an immutable snapshot of everything a SharedBank has
//    explored (after training on a corpus or an exhaustive ExploreAll),
//    re-laid-out for concurrent readers: dense flat internal/call tables,
//    a sorted sparse return table probed by binary search, accept bitsets
//    and live counts per state. After Freeze() nothing is ever written,
//    so any number of threads may step it lock-free.
//  * Each serving stream pairs the snapshot with a private SharedBank
//    that extends it (SharedBank(frozen)) for the steps the snapshot
//    never saw. The bank interns only tuples the snapshot lacks; a step
//    that lands on a snapshot tuple gets the snapshot's id back, so a
//    transient excursion (one unusual symbol) costs a few bank steps, not
//    a permanently degraded stream. Correctness therefore never depends
//    on training coverage.
//
// Id spaces: snapshot ids are the SharedBank ids at snapshot time (dense,
// < num_states()); a bank that extends the snapshot numbers its own
// states from num_states() up. kNoState keeps its usual meaning ("miss"
// from snapshot lookups, "pending frame" in returns).
#ifndef NW_SERVE_FROZEN_BANK_H_
#define NW_SERVE_FROZEN_BANK_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "opt/bank.h"

namespace nw {

/// Immutable, cache-friendly snapshot of an explored SharedBank.
///
/// Invariant: every member is written once inside Freeze() and never
/// again — concurrent readers need no synchronization. Lookups return
/// kNoState for steps the snapshot does not cover (a bank that extends
/// the snapshot takes those); covered steps always return a valid
/// snapshot id.
class FrozenBank {
 public:
  /// Snapshots `bank` as explored so far. Train first: either stream a
  /// corpus through a QueryEngine::AddBank engine, or call
  /// bank.ExploreAll() for a coverage-complete snapshot. A bank that
  /// extends a snapshot is refused. With a timeline (obs/prof.h) the call
  /// records one "freeze" phase: the snapshot's re-layout wall µs over
  /// the bank's state count.
  static FrozenBank Freeze(const SharedBank& bank,
                           CompileTimeline* timeline = nullptr);

  /// Epoch-handle spelling of Freeze for long-lived serving (NWDaemon):
  /// the returned shared_ptr is the RCU unit — a publisher swaps it while
  /// readers finish their stream over the old snapshot, and the old epoch
  /// is reclaimed when its last holder drops the handle. Same snapshot,
  /// same immutability contract, just heap-owned.
  static std::shared_ptr<const FrozenBank> FreezeShared(
      const SharedBank& bank, CompileTimeline* timeline = nullptr);

  size_t num_queries() const { return autos_.size(); }
  size_t num_symbols() const { return num_symbols_; }
  /// Product states in the snapshot (frozen ids are < this).
  size_t num_states() const { return num_states_; }
  /// Frozen id of the interned tuple of component initial states.
  StateId initial() const { return initial_; }
  /// Words per accept bitset (= ceil(num_queries / 64)).
  size_t accept_words() const { return words_; }

  // -- Lock-free lookups (kNoState = not in the snapshot). --

  /// δi on the frozen product.
  StateId Internal(StateId q, Symbol a) const {
    return internal_[q * num_symbols_ + a];
  }
  /// Linear half of δc; a covered call always has both halves.
  StateId CallLinear(StateId q, Symbol a) const {
    return call_lin_[q * num_symbols_ + a];
  }
  /// Hierarchical half of δc (the frame tuple to push).
  StateId CallHier(StateId q, Symbol a) const {
    return call_hier_[q * num_symbols_ + a];
  }
  /// δr; `hier` is a frame id or kNoState for a pending return. A frame
  /// the snapshot lacks (a bank's own id below 2^24) simply misses.
  StateId Return(StateId q, StateId hier, Symbol a) const;

  // -- Per-state facts, snapshot copies of the SharedBank's. --

  /// Accept bitset of state `q` (bit i = query i accepting).
  const uint64_t* accepts(StateId q) const {
    return accept_.data() + q * words_;
  }
  bool accepting(StateId q, size_t id) const {
    return (accepts(q)[id / 64] >> (id % 64)) & 1;
  }
  /// Still-live component runs in state `q`.
  size_t live(StateId q) const { return live_[q]; }
  /// Component query `id`'s state in tuple `q` (kNoState = dead run).
  StateId component(StateId q, size_t id) const {
    return tuples_[q * autos_.size() + id];
  }
  /// Pointer to the K component states of tuple `q`.
  const StateId* tuple(StateId q) const {
    return tuples_.data() + q * autos_.size();
  }

  /// Frozen id of the state with exactly this component tuple, or
  /// kNoState when the snapshot never interned it. Banks that extend the
  /// snapshot intern through this, which is their way back into
  /// lock-free territory.
  StateId FindTuple(const StateId* tuple) const;

  /// The component automata (aliases into the optimizer's bank; they must
  /// outlive the FrozenBank and every bank that extends it).
  const std::vector<const Nwa*>& autos() const { return autos_; }

 private:
  FrozenBank() = default;

  std::vector<const Nwa*> autos_;
  size_t num_symbols_ = 0;
  size_t num_states_ = 0;
  size_t words_ = 0;
  StateId initial_ = kNoState;
  std::vector<StateId> internal_;   ///< dense [q*|Σ|+a]
  std::vector<StateId> call_lin_;   ///< dense [q*|Σ|+a]
  std::vector<StateId> call_hier_;  ///< dense [q*|Σ|+a]
  std::vector<uint64_t> return_keys_;  ///< sorted packed (q, hier, a)
  std::vector<StateId> return_targets_;  ///< parallel to return_keys_
  std::vector<StateId> tuples_;          ///< K per state, state-major
  std::vector<uint64_t> accept_;
  std::vector<uint32_t> live_;
  std::unordered_map<uint64_t, std::vector<StateId>> buckets_;
};

/// The older spelling of a bank that extends a snapshot: construct it as
/// SharedBank(frozen) (opt/bank.h) and register it with
/// QueryEngine::AddFrozen.
using OverflowBank = SharedBank;

}  // namespace nw

#endif  // NW_SERVE_FROZEN_BANK_H_
