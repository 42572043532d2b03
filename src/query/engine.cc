#include "query/engine.h"

#include "json/json.h"
#include "opt/bank.h"
#include "serve/frozen_bank.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "trace/trace.h"

namespace nw {

void QueryEngine::set_stats(StatsSink* sink) {
  NW_CHECK_MSG(sink != nullptr, "set_stats() needs a sink; stats are off "
               "by default — simply never attach one");
  // Carry over counts accrued in the internal sink so the frozen hit/miss
  // accessors never go backwards across a late attach.
  if (stats_ == &own_stats_ && sink != &own_stats_) {
    sink->MergeFrom(own_stats_);
  }
  stats_ = sink;
  stats_enabled_ = true;
}

void QueryEngine::set_attribution(QueryAttribution* attr) {
  NW_CHECK_MSG(attr != nullptr, "set_attribution() needs a table; "
               "attribution is off by default — simply never attach one");
  NW_CHECK_MSG(attr->num_queries() == num_queries(),
               "attribution table sized for %zu queries attached to a "
               "%zu-query engine; attach after registering the bank",
               attr->num_queries(), num_queries());
  attr_ = attr;
}

void QueryEngine::RecordDocStats(uint64_t latency_us, size_t doc_positions,
                                 const std::vector<bool>& results) {
  if (stats_enabled_) {
    stats_->engine_docs.Inc();
    stats_->engine_positions.Add(doc_positions);
    stats_->doc_latency_us.Record(latency_us);
    if (bank_ == nullptr) {
      stats_->engine_docs_soa.Inc();
    } else if (frozen_ != nullptr) {
      stats_->engine_docs_frozen.Inc();
    } else {
      stats_->engine_docs_bank.Inc();
    }
  }
  if (attr_ != nullptr) {
    // The table totals mirror engine_docs/engine_positions exactly, so
    // the rendered `queries` section can never drift from `engine`.
    attr_->docs.Inc();
    attr_->positions.Add(doc_positions);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i]) attr_->query(i).match_docs.Inc();
    }
  }
}

size_t QueryEngine::num_queries() const {
  return bank_ != nullptr ? bank_->num_queries() : autos_.size();
}

size_t QueryEngine::ProductLive() const {
  return InSnapshot() ? frozen_->live(bank_state_) : bank_->live(bank_state_);
}

const uint64_t* QueryEngine::ProductAccepts() const {
  return InSnapshot() ? frozen_->accepts(bank_state_)
                      : bank_->accepts(bank_state_);
}

bool QueryEngine::Accepting(size_t id) const {
  if (bank_ == nullptr) {
    return state_[id] != kNoState && autos_[id]->is_final(state_[id]);
  }
  return (ProductAccepts()[id / 64] >> (id % 64)) & 1;
}

bool QueryEngine::dead(size_t id) const {
  if (bank_ == nullptr) return state_[id] == kNoState;
  StateId c = InSnapshot() ? frozen_->component(bank_state_, id)
                           : bank_->component(bank_state_, id);
  return c == kNoState;
}

size_t QueryEngine::Add(const Nwa* a) {
  NW_CHECK_MSG(bank_ == nullptr,
               "Add() and AddBank()/AddFrozen() are mutually exclusive: "
               "the engine steps K automata or one shared product");
  NW_CHECK_MSG(a->num_symbols() == num_symbols_,
               "query automaton symbol space mismatch");
  // Discard frames a previous stream left pending (unclosed opens are
  // legal input): frames hold one slot per query, so they cannot survive
  // a bank-size change. Any in-progress stream is invalidated.
  stack_.clear();
  autos_.push_back(a);
  state_.push_back(a->initial());
  live_ += a->initial() != kNoState;
  return autos_.size() - 1;
}

void QueryEngine::AddBank(SharedBank* bank) {
  NW_CHECK_MSG(autos_.empty() && bank_ == nullptr,
               "AddBank() needs a fresh engine: no Add()ed automata and "
               "no previous bank");
  NW_CHECK_MSG(bank->num_symbols() == num_symbols_,
               "shared bank symbol space mismatch");
  stack_.clear();
  bank_ = bank;
  frozen_ = bank->frozen();
  snapshot_states_ = bank->first_own_state();
  bank_state_ = bank_->initial();
  live_ = ProductLive();
}

void QueryEngine::AddFrozen(const FrozenBank* frozen, SharedBank* bank) {
  NW_CHECK_MSG(bank != nullptr && bank->frozen() == frozen,
               "AddFrozen() needs a bank that extends the same snapshot: "
               "build it as SharedBank(frozen)");
  AddBank(bank);
}

void QueryEngine::set_other_symbol(Symbol s) {
  NW_CHECK_MSG(s < num_symbols_,
               "catch-all symbol %u out of range: engine compiled over %zu "
               "symbols",
               s, num_symbols_);
  other_ = s;
}

void QueryEngine::BeginStream() {
  if (bank_ != nullptr) {
    bank_state_ = bank_->initial();
    live_ = ProductLive();
  } else {
    live_ = 0;
    for (size_t i = 0; i < autos_.size(); ++i) {
      state_[i] = autos_[i]->initial();
      live_ += state_[i] != kNoState;
    }
  }
  stack_.clear();
  max_frames_ = 0;
  stream_pos_ = 0;
  ++traversals_;
  if (track_matches_) {
    first_match_.assign(num_queries(), -1);
    if (bank_ != nullptr) seen_accepts_.assign(bank_->accept_words(), 0);
    LatchMatches();  // a query may accept the empty prefix (position 0)
  }
}

size_t QueryEngine::Feed(TaggedSymbol t) {
  ++positions_;
  ++stream_pos_;
  const size_t k = autos_.size();
  if (bank_ == nullptr && k == 0) return 0;
  Symbol s = t.symbol;
  if (s >= num_symbols_) {
    NW_CHECK_MSG(other_ != Alphabet::kNoSymbol,
                 "stream symbol %u outside the compiled space and no "
                 "catch-all configured",
                 s);
    s = other_;
  }
  if (bank_ != nullptr) {
    // Product path: ONE step and (per call) ONE pushed StateId for the
    // whole bank, regardless of K. A snapshot state first tries the
    // snapshot's lock-free tables; whatever they do not cover (and every
    // state the bank owns) steps the bank.
    const bool in_snapshot = InSnapshot();
    StateId next = kNoState;
    switch (t.kind) {
      case Kind::kInternal:
        if (in_snapshot) next = frozen_->Internal(bank_state_, s);
        if (Missed(next)) next = bank_->StepInternal(bank_state_, s);
        break;
      case Kind::kCall: {
        StateId h = kNoState;
        if (in_snapshot) {
          next = frozen_->CallLinear(bank_state_, s);
          h = frozen_->CallHier(bank_state_, s);
        }
        if (Missed(next)) next = bank_->StepCall(bank_state_, s, &h);
        stack_.push_back(h);
        if (stack_.size() > max_frames_) max_frames_ = stack_.size();
        break;
      }
      case Kind::kReturn: {
        StateId h = kNoState;  // pending return: components read P0
        if (!stack_.empty()) {
          h = stack_.back();
          stack_.pop_back();
        }
        // A frame the bank owns is in no snapshot row: that lookup misses.
        if (in_snapshot) next = frozen_->Return(bank_state_, h, s);
        if (Missed(next)) next = bank_->StepReturn(bank_state_, h, s);
        break;
      }
    }
    bank_state_ = next;
    live_ = ProductLive();
    if (track_matches_) LatchMatches();
    return live_;
  }
  // SoA path. Liveness is tracked incrementally (dead runs stay dead, so
  // a query leaves the live count exactly once) — no extra O(K) scan per
  // position.
  switch (t.kind) {
    case Kind::kInternal:
      for (size_t i = 0; i < k; ++i) {
        StateId next = autos_[i]->StepInternal(state_[i], s);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      break;
    case Kind::kCall: {
      // One shared frame per call position: K hierarchical states,
      // contiguous. Dead queries park kNoState in their slot.
      size_t base = stack_.size();
      stack_.resize(base + k);
      for (size_t i = 0; i < k; ++i) {
        StateId next = autos_[i]->StepCall(state_[i], s, &stack_[base + i]);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      size_t frames = stack_.size() / k;
      if (frames > max_frames_) max_frames_ = frames;
      break;
    }
    case Kind::kReturn: {
      size_t base = stack_.empty() ? 0 : stack_.size() - k;
      for (size_t i = 0; i < k; ++i) {
        // Pending return (empty stack): every query reads hier_initial.
        StateId h = stack_.empty() ? kNoState : stack_[base + i];
        StateId next = autos_[i]->StepReturn(state_[i], h, s);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      if (!stack_.empty()) stack_.resize(base);
      break;
    }
  }
  if (track_matches_) LatchMatches();
  return live_;
}

void QueryEngine::LatchMatches() {
  if (bank_ != nullptr) {
    // Word-parallel accept diffing over the product state's bitset.
    const uint64_t* acc = ProductAccepts();
    for (size_t w = 0; w < seen_accepts_.size(); ++w) {
      if (attr_ != nullptr) {
        // NWProf accept tally: every set bit is one "query observed
        // accepting at this position" event (the word-parallel twin of
        // the SoA path's per-query Accepting scan below).
        uint64_t bits = acc[w];
        while (bits != 0) {
          size_t bit = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          attr_->query(w * 64 + bit).accept_positions.Inc();
        }
      }
      uint64_t fresh = acc[w] & ~seen_accepts_[w];
      seen_accepts_[w] |= acc[w];
      while (fresh != 0) {
        size_t bit = static_cast<size_t>(__builtin_ctzll(fresh));
        fresh &= fresh - 1;
        first_match_[w * 64 + bit] = static_cast<int64_t>(stream_pos_);
      }
    }
    return;
  }
  for (size_t i = 0; i < autos_.size(); ++i) {
    // The latch alone only needs Accepting() for unlatched queries; the
    // NWProf tally observes every accepting query every position, so the
    // short-circuit order flips when a table is attached.
    if (attr_ != nullptr) {
      if (!Accepting(i)) continue;
      attr_->query(i).accept_positions.Inc();
      if (first_match_[i] < 0) {
        first_match_[i] = static_cast<int64_t>(stream_pos_);
      }
    } else if (first_match_[i] < 0 && Accepting(i)) {
      first_match_[i] = static_cast<int64_t>(stream_pos_);
    }
  }
}

std::vector<bool> QueryEngine::RunAll(const NestedWord& n) {
  Stopwatch sw;
  const size_t before = positions_;
  BeginStream();
  for (const TaggedSymbol& t : n.tagged()) {
    if (Feed(t) == 0) break;  // every run dead: acceptance is settled
  }
  std::vector<bool> results = Results();
  if (stats_enabled_ || attr_ != nullptr) {
    RecordDocStats(static_cast<uint64_t>(sw.ElapsedUs()),
                   positions_ - before, results);
  }
  return results;
}

template <typename Stream>
std::vector<bool> QueryEngine::RunStream(const std::string& text,
                                         Alphabet* alphabet) {
  Stopwatch sw;
  const size_t before = positions_;
  BeginStream();
  Stream stream(text, alphabet);
  if (stats_enabled_) stream.set_stats(stats_);
  TaggedSymbol t;
  while (stream.Next(&t)) {
    if (Feed(t) == 0) break;  // every run dead: acceptance is settled
  }
  std::vector<bool> results = Results();
  if (stats_enabled_ || attr_ != nullptr) {
    RecordDocStats(static_cast<uint64_t>(sw.ElapsedUs()),
                   positions_ - before, results);
  }
  return results;
}

std::vector<bool> QueryEngine::RunAll(const std::string& xml_text,
                                      Alphabet* alphabet) {
  return RunStream<XmlTokenStream>(xml_text, alphabet);
}

std::vector<bool> QueryEngine::RunAll(const std::string& text,
                                      Alphabet* alphabet,
                                      InputFormat format) {
  switch (format) {
    case InputFormat::kXml:
      return RunStream<XmlTokenStream>(text, alphabet);
    case InputFormat::kJson:
      return RunStream<JsonTokenStream>(text, alphabet);
    case InputFormat::kTrace:
      return RunStream<TraceTokenStream>(text, alphabet);
  }
  NW_CHECK_MSG(false, "unreachable: unknown input format");
  return {};
}

std::vector<bool> QueryEngine::Results() const {
  std::vector<bool> out(num_queries());
  for (size_t i = 0; i < out.size(); ++i) out[i] = Accepting(i);
  return out;
}

}  // namespace nw
