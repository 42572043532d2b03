#include <algorithm>

#include "nwa/language_ops.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nwa/determinize.h"
#include "support/check.h"

namespace nw {

Nnwa Union(const Nnwa& a, const Nnwa& b) {
  NW_CHECK(a.num_symbols() == b.num_symbols());
  const size_t k = a.num_symbols();
  Nnwa out(k);
  auto add_copy = [&](const Nnwa& src, StateId offset) {
    for (StateId q = 0; q < src.num_states(); ++q) {
      StateId id = out.AddState(src.is_final(q));
      NW_CHECK(id == q + offset);
    }
    for (StateId q : src.initial()) out.AddInitial(q + offset);
    for (StateId p : src.hier_initial()) out.AddHierInitial(p + offset);
    for (StateId q = 0; q < src.num_states(); ++q) {
      for (Symbol c = 0; c < k; ++c) {
        for (StateId t : src.InternalTargets(q, c)) {
          out.AddInternal(q + offset, c, t + offset);
        }
        for (const CallEdge& e : src.CallTargets(q, c)) {
          out.AddCall(q + offset, c, e.linear + offset, e.hier + offset);
        }
        for (const ReturnEdge& e : src.ReturnEdges(q, c)) {
          out.AddReturn(q + offset, e.hier + offset, c, e.target + offset);
        }
      }
    }
  };
  add_copy(a, 0);
  add_copy(b, static_cast<StateId>(a.num_states()));
  return out;
}

Nnwa Intersect(const Nnwa& a, const Nnwa& b) {
  NW_CHECK(a.num_symbols() == b.num_symbols());
  const size_t k = a.num_symbols();
  const size_t nb = b.num_states();
  Nnwa out(k);
  auto id = [&](StateId p, StateId q) {
    return static_cast<StateId>(p * nb + q);
  };
  for (StateId p = 0; p < a.num_states(); ++p) {
    for (StateId q = 0; q < nb; ++q) {
      StateId s = out.AddState(a.is_final(p) && b.is_final(q));
      NW_CHECK(s == id(p, q));
    }
  }
  for (StateId p : a.initial()) {
    for (StateId q : b.initial()) out.AddInitial(id(p, q));
  }
  for (StateId p : a.hier_initial()) {
    for (StateId q : b.hier_initial()) out.AddHierInitial(id(p, q));
  }
  for (StateId p = 0; p < a.num_states(); ++p) {
    for (StateId q = 0; q < nb; ++q) {
      for (Symbol c = 0; c < k; ++c) {
        for (StateId tp : a.InternalTargets(p, c)) {
          for (StateId tq : b.InternalTargets(q, c)) {
            out.AddInternal(id(p, q), c, id(tp, tq));
          }
        }
        for (const CallEdge& ea : a.CallTargets(p, c)) {
          for (const CallEdge& eb : b.CallTargets(q, c)) {
            out.AddCall(id(p, q), c, id(ea.linear, eb.linear),
                        id(ea.hier, eb.hier));
          }
        }
        for (const ReturnEdge& ea : a.ReturnEdges(p, c)) {
          for (const ReturnEdge& eb : b.ReturnEdges(q, c)) {
            out.AddReturn(id(p, q), id(ea.hier, eb.hier), c,
                          id(ea.target, eb.target));
          }
        }
      }
    }
  }
  return out;
}

Nwa Complement(const Nnwa& a) {
  Nwa det = Determinize(a).nwa;
  det.Totalize();
  // Flipping every state's finality is sound: hierarchical carrier states
  // (including the pending marker) are never the linear state of a run.
  for (StateId q = 0; q < det.num_states(); ++q) {
    det.set_final(q, !det.is_final(q));
  }
  return det;
}

Nnwa ComplementN(const Nnwa& a) { return Nnwa::FromNwa(Complement(a)); }

namespace {

/// Connective applied by BooleanProduct; kNot ignores the second operand.
enum class Connective { kAnd, kOr, kNot };

/// The synchronous product of `a` and `b` (of `a` alone for kNot), with
/// finals from `op`. A product state is a pair of operand states, where
/// kNoState stands for an operand's sink: a missing transition moves that
/// component there for good, exactly as if the operand had been totalized
/// first. Pairs the connective has settled false are left out.
///
/// Return rules follow the (run state, frame) combinations a run can meet:
/// a frame's context collects the run states seen while it is on top of
/// the stack, and a return from a context lands in the contexts of the
/// frame's pushers. Every other combination is a don't-care; in products
/// of modest size it gets the rule the full product would have wherever
/// that rule lands on a pair the product already has, so no state is added
/// for it, and the minimizer can still merge states that differ only
/// there.
Nwa BooleanProduct(const Nwa& a, const Nwa* b, Connective op) {
  NW_CHECK(b == nullptr || a.num_symbols() == b->num_symbols());
  const size_t k = a.num_symbols();
  auto accepts = [](const Nwa& x, StateId p) {
    return p != kNoState && x.is_final(p);
  };
  auto is_final = [&](StateId p, StateId q) {
    switch (op) {
      case Connective::kAnd: return accepts(a, p) && accepts(*b, q);
      case Connective::kOr: return accepts(a, p) || accepts(*b, q);
      case Connective::kNot: return !accepts(a, p);
    }
    __builtin_unreachable();
  };
  auto settled_false = [&](StateId p, StateId q) {
    switch (op) {
      case Connective::kAnd: return p == kNoState || q == kNoState;
      case Connective::kOr: return p == kNoState && q == kNoState;
      case Connective::kNot: return false;
    }
    __builtin_unreachable();
  };
  auto key = [](StateId x, StateId y) {
    return (static_cast<uint64_t>(x) << 32) | y;
  };

  Nwa out(k);
  std::unordered_map<uint64_t, StateId> ids;
  std::vector<std::pair<StateId, StateId>> pairs;  // product state -> pair
  auto intern = [&](StateId p, StateId q) {
    if (settled_false(p, q)) return kNoState;
    auto [it, fresh] =
        ids.try_emplace(key(p, q), static_cast<StateId>(pairs.size()));
    if (fresh) {
      pairs.emplace_back(p, q);
      out.AddState(is_final(p, q));
    }
    return it->second;
  };
  // Applies `step` to the second operand, or yields its (absent) sink.
  auto on_b = [b](auto step) { return b == nullptr ? kNoState : step(*b); };
  auto return_pair = [&](StateId s, StateId h, Symbol c) {
    auto [p, q] = pairs[s];
    auto [hp, hq] = pairs[h];
    auto ret = [c](const Nwa& x, StateId r, StateId f) {
      return r == kNoState || f == kNoState ? kNoState : x.NextReturn(r, f, c);
    };
    return std::make_pair(ret(a, p, hp),
                          on_b([&](const Nwa& x) { return ret(x, q, hq); }));
  };

  const StateId initial =
      intern(a.initial(), on_b([](const Nwa& x) { return x.initial(); }));
  const StateId hier_initial = intern(
      a.hier_initial(), on_b([](const Nwa& x) { return x.hier_initial(); }));
  NW_CHECK(initial != kNoState && hier_initial != kNoState);
  out.set_initial(initial);
  out.set_hier_initial(hier_initial);

  // Contexts are keyed by the frame on top of the stack; kNoState keys the
  // top level, whose (pending) returns read hier_initial and stay there.
  struct Context {
    std::vector<StateId> members;  // run states met under this frame
    std::vector<StateId> pushers;  // contexts that push this frame
  };
  std::unordered_map<StateId, Context> contexts;
  std::unordered_set<uint64_t> met, pushed;  // keys of members, pushers
  std::vector<std::pair<StateId, StateId>> work;  // (context, run state)
  auto enter = [&](StateId ctx, StateId s) {
    if (!met.insert(key(ctx, s)).second) return;
    contexts[ctx].members.push_back(s);
    work.emplace_back(ctx, s);
  };
  // Returns from run state `s` under context `ctx` land in `to`.
  auto pop = [&](StateId s, StateId ctx, StateId to) {
    const StateId h = ctx == kNoState ? hier_initial : ctx;
    for (Symbol c = 0; c < k; ++c) {
      auto [p, q] = return_pair(s, h, c);
      StateId t = intern(p, q);
      if (t == kNoState) continue;
      out.SetReturn(s, h, c, t);
      enter(to, t);
    }
  };

  contexts[kNoState].pushers.push_back(kNoState);
  enter(kNoState, initial);
  while (!work.empty()) {
    auto [ctx, s] = work.back();
    work.pop_back();
    auto [p, q] = pairs[s];
    for (Symbol c = 0; c < k; ++c) {
      StateId t = intern(a.StepInternal(p, c), on_b([&](const Nwa& x) {
                           return x.StepInternal(q, c);
                         }));
      if (t != kNoState) {
        out.SetInternal(s, c, t);
        enter(ctx, t);
      }
      StateId hp = kNoState, hq = kNoState;
      StateId lp = a.StepCall(p, c, &hp);
      StateId lq = on_b([&](const Nwa& x) { return x.StepCall(q, c, &hq); });
      StateId next = intern(lp, lq);
      if (next == kNoState) continue;
      // A live call pair pushes a live frame pair: every component that
      // survives the call pushes its frame.
      StateId frame = intern(hp, hq);
      out.SetCall(s, c, next, frame);
      enter(frame, next);
      if (pushed.insert(key(frame, ctx)).second) {
        contexts[frame].pushers.push_back(ctx);
        for (size_t i = 0; i < contexts[frame].members.size(); ++i) {
          pop(contexts[frame].members[i], frame, ctx);
        }
      }
    }
    for (size_t i = 0; i < contexts[ctx].pushers.size(); ++i) {
      pop(s, ctx, contexts[ctx].pushers[i]);
    }
  }

  std::vector<StateId> frames = {hier_initial};
  for (const auto& [ctx, unused] : contexts) {
    if (ctx != kNoState && ctx != hier_initial) frames.push_back(ctx);
  }
  // Filling the don't-cares looks up every (state, frame, symbol), which
  // would make a large product (`depth >= 1000 and //a`) quadratic; only
  // products within this many lookups get it.
  constexpr size_t kFillBudget = size_t{1} << 20;
  if (out.num_states() * frames.size() * k > kFillBudget) return out;
  for (StateId s = 0; s < out.num_states(); ++s) {
    for (StateId h : frames) {
      for (Symbol c = 0; c < k; ++c) {
        if (out.NextReturn(s, h, c) != kNoState) continue;
        auto [p, q] = return_pair(s, h, c);
        auto it = ids.find(key(p, q));
        if (it != ids.end()) out.SetReturn(s, h, c, it->second);
      }
    }
  }
  return out;
}

}  // namespace

Nwa Product(const Nwa& a, const Nwa& b, ProductOp op) {
  return BooleanProduct(
      a, &b, op == ProductOp::kAnd ? Connective::kAnd : Connective::kOr);
}

Nwa Complement(const Nwa& a) {
  return BooleanProduct(a, nullptr, Connective::kNot);
}

Nnwa Concat(const Nnwa& a, const Nnwa& b) {
  NW_CHECK(a.num_symbols() == b.num_symbols());
  const size_t k = a.num_symbols();
  // Disjoint sum; phase-a states come first.
  Nnwa out = Union(a, b);
  const StateId off = static_cast<StateId>(a.num_states());

  // Fix initials and finals: the union added both sides' initials and
  // finals; concatenation starts only in a's initials (plus b's if
  // ε ∈ L(a)) and accepts only in b's finals (plus a's if ε ∈ L(b)).
  bool a_eps = false;
  for (StateId q : a.initial()) a_eps = a_eps || a.is_final(q);
  bool b_eps = false;
  for (StateId q : b.initial()) b_eps = b_eps || b.is_final(q);
  // Rebuild: Union's state layout is known, so construct fresh.
  Nnwa fresh(k);
  for (StateId q = 0; q < a.num_states(); ++q) {
    fresh.AddState(a.is_final(q) && b_eps);
  }
  for (StateId q = 0; q < b.num_states(); ++q) {
    fresh.AddState(b.is_final(q));
  }
  for (StateId q : a.initial()) fresh.AddInitial(q);
  if (a_eps) {
    for (StateId q : b.initial()) fresh.AddInitial(q + off);
  }
  for (StateId p : a.hier_initial()) fresh.AddHierInitial(p);
  for (StateId p : b.hier_initial()) fresh.AddHierInitial(p + off);

  // Phase-a transitions.
  for (StateId q = 0; q < a.num_states(); ++q) {
    for (Symbol c = 0; c < k; ++c) {
      for (StateId t : a.InternalTargets(q, c)) fresh.AddInternal(q, c, t);
      for (const CallEdge& e : a.CallTargets(q, c)) {
        fresh.AddCall(q, c, e.linear, e.hier);
      }
      for (const ReturnEdge& e : a.ReturnEdges(q, c)) {
        fresh.AddReturn(q, e.hier, c, e.target);
      }
    }
  }
  // Phase-b transitions, plus switch copies from every final of a, plus
  // the cross-boundary pending rule: popping any phase-a frame in phase b
  // reads as a pending return of b.
  std::vector<bool> b_p0(b.num_states(), false);
  for (StateId p : b.hier_initial()) b_p0[p] = true;
  for (StateId q = 0; q < b.num_states(); ++q) {
    for (Symbol c = 0; c < k; ++c) {
      for (StateId t : b.InternalTargets(q, c)) {
        fresh.AddInternal(q + off, c, t + off);
      }
      for (const CallEdge& e : b.CallTargets(q, c)) {
        fresh.AddCall(q + off, c, e.linear + off, e.hier + off);
      }
      for (const ReturnEdge& e : b.ReturnEdges(q, c)) {
        fresh.AddReturn(q + off, e.hier + off, c, e.target + off);
        if (b_p0[e.hier]) {
          // Cross-boundary: any value pushed by the a-phase is "pending"
          // from b's point of view.
          for (StateId ha = 0; ha < a.num_states(); ++ha) {
            fresh.AddReturn(q + off, ha, c, e.target + off);
          }
        }
      }
      // Switch: b's first transition may fire from any final state of a.
      const bool q_is_initial_b =
          std::find(b.initial().begin(), b.initial().end(), q) !=
          b.initial().end();
      if (!q_is_initial_b) continue;
      for (StateId f = 0; f < a.num_states(); ++f) {
        if (!a.is_final(f)) continue;
        for (StateId t : b.InternalTargets(q, c)) {
          fresh.AddInternal(f, c, t + off);
        }
        for (const CallEdge& e : b.CallTargets(q, c)) {
          fresh.AddCall(f, c, e.linear + off, e.hier + off);
        }
        for (const ReturnEdge& e : b.ReturnEdges(q, c)) {
          if (b_p0[e.hier]) {
            // The switch position is a return: it pops either a true
            // pending edge (some p0 of the combined automaton) or an
            // a-phase frame; both read as pending for b.
            for (StateId p : b.hier_initial()) {
              fresh.AddReturn(f, p + off, c, e.target + off);
            }
            for (StateId ha = 0; ha < a.num_states(); ++ha) {
              fresh.AddReturn(f, ha, c, e.target + off);
            }
          }
        }
      }
    }
  }
  (void)out;
  return fresh;
}

Nnwa Star(const Nnwa& a) {
  const size_t k = a.num_symbols();
  const size_t s = a.num_states();
  // States (q, bit): bit = 1 iff no currently-open call of this factor
  // (the stack is at the factor's floor). Frames store the bit to restore.
  Nnwa out(k);
  auto id = [&](StateId q, int bit) {
    return static_cast<StateId>(2 * q + bit);
  };
  for (StateId q = 0; q < s; ++q) {
    out.AddState(false);                 // (q, 0)
    out.AddState(a.is_final(q));         // (q, 1)
  }
  // Word-end acceptance: the last factor may end with open calls, so a
  // final state accepts at either bit.
  for (StateId q = 0; q < s; ++q) {
    if (a.is_final(q)) out.set_final(id(q, 0));
  }
  StateId eps = out.AddState(true);  // accepts the empty word
  StateId bottom = out.AddState(false);
  for (StateId q : a.initial()) out.AddInitial(id(q, 1));
  out.AddInitial(eps);
  out.AddHierInitial(bottom);

  // `sources` enumerates the in-factor source states for a transition of
  // A from state q: the plain copies of q, plus — when q is initial in A —
  // every final copy (factor switch: a new factor starts at this symbol).
  auto sources = [&](StateId q, int bit) {
    std::vector<std::pair<StateId, bool>> src;  // (state, resets_to_floor)
    src.push_back({id(q, bit), false});
    bool q_initial = std::find(a.initial().begin(), a.initial().end(), q) !=
                     a.initial().end();
    if (q_initial && bit == 1) {
      for (StateId f = 0; f < s; ++f) {
        if (!a.is_final(f)) continue;
        src.push_back({id(f, 0), true});
        src.push_back({id(f, 1), true});
      }
    }
    return src;
  };

  for (StateId q = 0; q < s; ++q) {
    for (Symbol c = 0; c < k; ++c) {
      for (StateId t : a.InternalTargets(q, c)) {
        // Internal keeps the bit; a switch restarts at the floor.
        for (auto [from, sw] : sources(q, 0)) {
          if (!sw) out.AddInternal(from, c, id(t, 0));
        }
        for (auto [from, sw] : sources(q, 1)) out.AddInternal(from, c, id(t, 1));
      }
      for (const CallEdge& e : a.CallTargets(q, c)) {
        // Push stores the pre-push bit; linear goes above the floor.
        for (auto [from, sw] : sources(q, 0)) {
          if (!sw) out.AddCall(from, c, id(e.linear, 0), id(e.hier, 0));
        }
        for (auto [from, sw] : sources(q, 1)) {
          out.AddCall(from, c, id(e.linear, 0), id(e.hier, 1));
        }
      }
      for (const ReturnEdge& e : a.ReturnEdges(q, c)) {
        // Above the floor: a genuine match within the current factor;
        // restore the stored bit.
        for (auto [from, sw] : sources(q, 0)) {
          if (sw) continue;
          out.AddReturn(from, id(e.hier, 0), c, id(e.target, 0));
          out.AddReturn(from, id(e.hier, 1), c, id(e.target, 1));
        }
        // At the floor: the pop reaches below the current factor — only
        // A's pending rules apply, against any popped frame or the true
        // bottom; the bit stays 1.
        bool pending_rule = false;
        for (StateId p0 : a.hier_initial()) pending_rule |= e.hier == p0;
        if (!pending_rule) continue;
        for (auto [from, sw] : sources(q, 1)) {
          out.AddReturn(from, bottom, c, id(e.target, 1));
          for (StateId h = 0; h < s; ++h) {
            out.AddReturn(from, id(h, 0), c, id(e.target, 1));
            out.AddReturn(from, id(h, 1), c, id(e.target, 1));
          }
        }
      }
    }
  }
  return out;
}

Nnwa ReverseLang(const Nnwa& a) {
  // Reversal swaps the roles of the four boundary sets: initials ↔ finals
  // and pending-return anchors (P0) ↔ pending-*call* constraints. The
  // target model has no pending-call acceptance set, so the construction
  // fuses in its normalization: state bit b = "the stack holds a frame
  // pushed by a matched-guess", which must be 0 at the end. A reversed
  // pending call derived from an original *pending* return transition
  // pushes the harmless π frame; one derived from a matched return pushes
  // a (hier, b) frame that must be popped (checked against the original
  // call transition) before acceptance.
  const size_t k = a.num_symbols();
  const size_t s = a.num_states();
  Nnwa out(k);
  auto id = [&](StateId q, int bit) {
    return static_cast<StateId>(2 * q + bit);
  };
  std::vector<bool> is_init(s, false);
  for (StateId q : a.initial()) is_init[q] = true;
  for (StateId q = 0; q < s; ++q) {
    out.AddState(is_init[q]);  // (q, 0): reversed-final iff initial in a
    out.AddState(false);       // (q, 1): never accepting (open frame)
  }
  StateId pending_marker = out.AddState(false);  // p̂: reversed P0
  StateId pi = out.AddState(false);              // π: pending-ok frame
  out.AddHierInitial(pending_marker);
  for (StateId q = 0; q < s; ++q) {
    if (a.is_final(q)) out.AddInitial(id(q, 0));
  }
  std::vector<bool> in_p0(s, false);
  for (StateId p : a.hier_initial()) in_p0[p] = true;

  for (StateId q = 0; q < s; ++q) {
    for (Symbol c = 0; c < k; ++c) {
      for (StateId t : a.InternalTargets(q, c)) {
        for (int b : {0, 1}) out.AddInternal(id(t, b), c, id(q, b));
      }
      for (const CallEdge& e : a.CallTargets(q, c)) {
        // Original call ⇒ reversed return. Matched: pop the (e.hier, b')
        // frame the reversed call pushed, restoring b'. Pending: the
        // original call's frame was never read, so any edge works — the
        // reversed pending return reads the marker.
        for (int b : {0, 1}) {
          out.AddReturn(id(e.linear, 1), id(e.hier, b), c, id(q, b));
        }
        for (int b : {0, 1}) {
          out.AddReturn(id(e.linear, b), pending_marker, c, id(q, b));
        }
      }
      for (const ReturnEdge& e : a.ReturnEdges(q, c)) {
        // Original return ⇒ reversed call.
        // Matched-guess: push the consumed hierarchical state tagged with
        // the current bit; the bit rises to 1 until the frame is popped.
        for (int b : {0, 1}) {
          out.AddCall(id(e.target, b), c, id(q, 1), id(e.hier, b));
        }
        // Pending-guess: only original *pending* return transitions can
        // stand for a reversed pending call; push π (never legally popped).
        if (in_p0[e.hier]) {
          for (int b : {0, 1}) {
            out.AddCall(id(e.target, b), c, id(q, b), pi);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace nw
