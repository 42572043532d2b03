#include "serve/frozen_bank.h"

#include <algorithm>
#include <numeric>

#include "obs/prof.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace nw {

FrozenBank FrozenBank::Freeze(const SharedBank& bank,
                              CompileTimeline* timeline) {
  NW_CHECK_MSG(bank.frozen() == nullptr,
               "Freeze() of a bank that extends a snapshot: freeze the bank "
               "the snapshot was frozen from instead");
  Stopwatch sw;
  FrozenBank f;
  f.autos_ = bank.autos();
  f.num_symbols_ = bank.num_symbols();
  f.num_states_ = bank.num_states();
  f.words_ = bank.accept_words();
  f.initial_ = bank.initial();
  const size_t k = f.autos_.size();
  const size_t sigma = f.num_symbols_;
  f.internal_.resize(f.num_states_ * sigma);
  f.call_lin_.resize(f.num_states_ * sigma);
  f.call_hier_.resize(f.num_states_ * sigma);
  f.tuples_.resize(f.num_states_ * k);
  f.accept_.resize(f.num_states_ * f.words_);
  f.live_.resize(f.num_states_);
  for (StateId q = 0; q < f.num_states_; ++q) {
    for (Symbol a = 0; a < sigma; ++a) {
      f.internal_[q * sigma + a] = bank.PeekInternal(q, a);
      f.call_lin_[q * sigma + a] = bank.PeekCallLinear(q, a);
      f.call_hier_[q * sigma + a] = bank.PeekCallHier(q, a);
    }
    std::copy(bank.tuple(q), bank.tuple(q) + k, f.tuples_.begin() + q * k);
    std::copy(bank.accepts(q), bank.accepts(q) + f.words_,
              f.accept_.begin() + q * f.words_);
    f.live_[q] = static_cast<uint32_t>(bank.live(q));
    f.buckets_[SharedBank::TupleHash(f.tuple(q), k)].push_back(q);
  }
  // Sparse return table: pack, then sort keys and targets together so
  // lookups are one binary search over a contiguous key array.
  std::vector<SharedBank::MemoReturn> rules = bank.MemoizedReturns();
  std::vector<size_t> order(rules.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<uint64_t> keys(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    keys[i] = SharedBank::PackReturnKey(rules[i].from, rules[i].hier,
                                       rules[i].symbol);
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  f.return_keys_.reserve(rules.size());
  f.return_targets_.reserve(rules.size());
  for (size_t i : order) {
    f.return_keys_.push_back(keys[i]);
    f.return_targets_.push_back(rules[i].target);
  }
  if (timeline != nullptr) {
    // Freezing re-lays-out, never explores: the state count is flat.
    timeline->Record("freeze", static_cast<uint64_t>(sw.ElapsedUs()),
                     f.num_states_, f.num_states_);
  }
  return f;
}

std::shared_ptr<const FrozenBank> FrozenBank::FreezeShared(
    const SharedBank& bank, CompileTimeline* timeline) {
  return std::make_shared<const FrozenBank>(Freeze(bank, timeline));
}

StateId FrozenBank::Return(StateId q, StateId hier, Symbol a) const {
  uint64_t key = SharedBank::PackReturnKey(q, hier, a);
  auto it = std::lower_bound(return_keys_.begin(), return_keys_.end(), key);
  if (it == return_keys_.end() || *it != key) return kNoState;
  return return_targets_[it - return_keys_.begin()];
}

StateId FrozenBank::FindTuple(const StateId* tuple) const {
  const size_t k = autos_.size();
  auto it = buckets_.find(SharedBank::TupleHash(tuple, k));
  if (it == buckets_.end()) return kNoState;
  for (StateId q : it->second) {
    if (std::equal(tuple, tuple + k, tuples_.begin() + q * k)) return q;
  }
  return kNoState;
}

}  // namespace nw
