#include "opt/bank.h"

#include <algorithm>
#include <unordered_set>

#include "obs/prof.h"
#include "obs/stats.h"
#include "serve/frozen_bank.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace nw {

uint64_t SharedBank::TupleHash(const StateId* tuple, size_t k) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < k; ++i) {
    h ^= tuple[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SharedBank::PackReturnKey(StateId q, StateId hier, Symbol a) {
  uint64_t h = hier == kNoState ? ((1u << 24) - 1) : hier;
  return (static_cast<uint64_t>(q) << 40) | (h << 16) | a;
}

SharedBank::SharedBank(std::vector<const Nwa*> autos)
    : SharedBank(std::move(autos), nullptr) {}

SharedBank::SharedBank(const FrozenBank* frozen)
    : SharedBank(frozen->autos(), frozen) {}

SharedBank::SharedBank(std::vector<const Nwa*> autos,
                       const FrozenBank* frozen)
    : autos_(std::move(autos)),
      frozen_(frozen),
      base_(frozen == nullptr ? 0
                              : static_cast<StateId>(frozen->num_states())) {
  NW_CHECK_MSG(!autos_.empty(), "shared bank needs at least one automaton");
  num_symbols_ = autos_[0]->num_symbols();
  for (const Nwa* a : autos_) {
    NW_CHECK_MSG(a->num_symbols() == num_symbols_,
                 "bank automaton symbol space mismatch");
  }
  NW_CHECK_MSG(num_symbols_ <= (1u << 16),
               "symbol space exceeds the product return-key packing");
  words_ = (autos_.size() + 63) / 64;
  std::vector<StateId> init(autos_.size());
  for (size_t i = 0; i < autos_.size(); ++i) init[i] = autos_[i]->initial();
  initial_ = Intern(init);
}

void SharedBank::set_attribution(QueryAttribution* attr) {
  NW_CHECK_MSG(attr == nullptr || attr->num_queries() == num_queries(),
               "attribution table sized for %zu queries attached to a "
               "%zu-query bank",
               attr->num_queries(), num_queries());
  attr_ = attr;
}

StateId SharedBank::Intern(const std::vector<StateId>& tuple) {
  if (frozen_ != nullptr) {
    // A tuple the snapshot has keeps the snapshot's id, so the bank never
    // owns a state the snapshot already knows.
    StateId twin = frozen_->FindTuple(tuple.data());
    if (twin != kNoState) return twin;
  }
  std::vector<StateId>& bucket =
      buckets_[TupleHash(tuple.data(), tuple.size())];
  const size_t k = autos_.size();
  for (StateId id : bucket) {
    if (std::equal(tuple.begin(), tuple.end(),
                   tuples_.begin() + (id - base_) * k)) {
      return id;
    }
  }
  NW_CHECK_MSG(num_states() < kMaxStates,
               "shared bank product exploded past %u states; use the "
               "per-query SoA engine path for this bank",
               kMaxStates);
  StateId id = static_cast<StateId>(num_states());
  if (stats_ != nullptr && frozen_ == nullptr) stats_->bank_states.Inc();
  bucket.push_back(id);
  tuples_.insert(tuples_.end(), tuple.begin(), tuple.end());
  accept_.resize(accept_.size() + words_, 0);
  uint64_t* acc = accept_.data() + (id - base_) * words_;
  uint32_t live = 0;
  for (size_t i = 0; i < k; ++i) {
    live += tuple[i] != kNoState;
    if (tuple[i] != kNoState && autos_[i]->is_final(tuple[i])) {
      acc[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  live_.push_back(live);
  rows_.resize(rows_.size() + num_symbols_);
  return id;
}

const StateId* SharedBank::Components(StateId q) const {
  return q < base_ ? frozen_->tuple(q) : tuple(q);
}

SharedBank::Row& SharedBank::MemoRow(StateId q, Symbol a) {
  if (q < base_) return snapshot_rows_[uint64_t{q} * num_symbols_ + a];
  return rows_[(q - base_) * num_symbols_ + a];
}

StateId SharedBank::Counted(bool memo_hit, StateId result) {
  if (stats_ == nullptr && attr_ == nullptr) return result;
  if (frozen_ == nullptr) {
    if (stats_ != nullptr) {
      (memo_hit ? stats_->bank_memo_hits : stats_->bank_memo_misses).Inc();
    }
    return result;
  }
  const bool escalated = result >= base_;
  if (stats_ != nullptr) {
    stats_->overflow_steps.Inc();
    (escalated ? stats_->overflow_escalations : stats_->overflow_mapbacks)
        .Inc();
  }
  if (attr_ != nullptr && escalated) {
    // NWProf: charge the escalation to every query whose run is still
    // live in the escalated state — a dead component cannot be the
    // reason the tuple is missing from the snapshot.
    const StateId* t = tuple(result);
    for (size_t i = 0; i < autos_.size(); ++i) {
      if (t[i] != kNoState) attr_->query(i).escalations.Inc();
    }
  }
  return result;
}

bool SharedBank::ExploreAll(size_t max_states, CompileTimeline* timeline) {
  NW_CHECK_MSG(frozen_ == nullptr,
               "ExploreAll() on a bank that extends a snapshot: explore the "
               "bank the snapshot was frozen from instead");
  Stopwatch sw;
  const size_t states_before = num_states();
  bool complete = ExploreFixpoint(max_states);
  if (timeline != nullptr) {
    timeline->Record("explore", static_cast<uint64_t>(sw.ElapsedUs()),
                     states_before, num_states());
  }
  return complete;
}

bool SharedBank::ExploreFixpoint(size_t max_states) {
  // Incremental fixed point: every (state, symbol) internal/call step and
  // every (state, frame, symbol) return step — frames being the call-hier
  // targets plus the pending-return sentinel — is taken exactly once.
  // `done_lin` tracks states with closed internal/call rows; `done_ret[f]`
  // tracks how many states have closed return rows against frame f, so a
  // frame discovered late still gets the full state range and vice versa.
  // Beware the size: the return closure is |Q|·|frames|·|Σ| steps, which
  // is why exhaustive freezing suits small products only; past
  // `max_states` we stop and let the banks that extend the snapshot cover
  // the rest.
  std::vector<StateId> frames{kNoState};
  std::unordered_set<StateId> seen_frame;
  std::vector<StateId> done_ret{0};  ///< parallel to `frames`
  StateId done_lin = 0;
  for (;;) {
    bool progressed = false;
    while (done_lin < num_states()) {
      if (num_states() > max_states) return false;
      StateId q = done_lin++;
      progressed = true;
      for (Symbol a = 0; a < num_symbols_; ++a) {
        StepInternal(q, a);
        StateId h;
        StepCall(q, a, &h);
        if (seen_frame.insert(h).second) {
          frames.push_back(h);
          done_ret.push_back(0);
        }
      }
    }
    for (size_t f = 0; f < frames.size(); ++f) {
      while (done_ret[f] < num_states()) {
        if (num_states() > max_states) return false;
        StateId q = done_ret[f]++;
        progressed = true;
        for (Symbol a = 0; a < num_symbols_; ++a) {
          StepReturn(q, frames[f], a);
        }
      }
    }
    if (!progressed) return true;
  }
}

std::vector<SharedBank::MemoReturn> SharedBank::MemoizedReturns() const {
  std::vector<MemoReturn> out;
  out.reserve(returns_.size());
  for (const auto& [key, target] : returns_) {
    StateId q = static_cast<StateId>(key >> 40);
    StateId h = static_cast<StateId>((key >> 16) & ((1u << 24) - 1));
    if (h == (1u << 24) - 1) h = kNoState;  // the pending-frame packing
    Symbol a = static_cast<Symbol>(key & 0xFFFF);
    out.push_back({q, h, a, target});
  }
  return out;
}

StateId SharedBank::StepInternal(StateId q, Symbol a) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  StateId memo = MemoRow(q, a).internal;
  if (memo != kNoState) return Counted(true, memo);
  const StateId* from = Components(q);
  const size_t k = autos_.size();
  std::vector<StateId> next(k);
  for (size_t i = 0; i < k; ++i) {
    next[i] = autos_[i]->StepInternal(from[i], a);
  }
  // Intern may grow the memo rows; look the row up again after it.
  StateId id = Intern(next);
  MemoRow(q, a).internal = id;
  return Counted(false, id);
}

StateId SharedBank::StepCall(StateId q, Symbol a, StateId* hier_out) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  const Row& memo = MemoRow(q, a);
  if (memo.call_lin != kNoState) {
    *hier_out = memo.call_hier;
    return Counted(true, memo.call_lin);
  }
  const StateId* from = Components(q);
  const size_t k = autos_.size();
  std::vector<StateId> lin(k), hier(k);
  for (size_t i = 0; i < k; ++i) {
    lin[i] = autos_[i]->StepCall(from[i], a, &hier[i]);
  }
  StateId lin_id = Intern(lin);
  StateId hier_id = Intern(hier);
  Row& row = MemoRow(q, a);
  row.call_lin = lin_id;
  row.call_hier = hier_id;
  *hier_out = hier_id;
  return Counted(false, lin_id);
}

StateId SharedBank::StepReturn(StateId q, StateId hier, Symbol a) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  NW_DCHECK(hier == kNoState || hier < num_states());
  uint64_t key = PackReturnKey(q, hier, a);
  auto it = returns_.find(key);
  if (it != returns_.end()) return Counted(true, it->second);
  const StateId* from = Components(q);
  const StateId* frame = hier == kNoState ? nullptr : Components(hier);
  const size_t k = autos_.size();
  std::vector<StateId> next(k);
  for (size_t i = 0; i < k; ++i) {
    // A pending return (no frame) lets each component read its own
    // hier_initial, matching the per-query engine path exactly.
    StateId h = frame == nullptr ? kNoState : frame[i];
    next[i] = autos_[i]->StepReturn(from[i], h, a);
  }
  StateId id = Intern(next);
  returns_.emplace(key, id);
  return Counted(false, id);
}

}  // namespace nw
