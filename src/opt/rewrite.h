// Algebraic query rewrites — AST-level optimization ahead of automaton
// lowering. Two passes, applied bottom-up:
//
//  1. Flatten + dedup: chains of the same connective are flattened into
//     one child list and structurally equal children are dropped
//     (x and x → x). Single survivors replace their connective.
//  2. Path-atom fusion: sibling path atoms under an `or` merge into ONE
//     kPathSet atom. This is sound precisely for `or` — "some element's
//     root path matches p1 OR some element's matches p2" is "some
//     element's root path lies in L(p1) ∪ L(p2)" — and the union lowers
//     through a single regex → DFA → NWA (compile.h), so paths sharing a
//     step prefix share DFA states instead of multiplying through a
//     product of per-path automata. (Under `and` the witnesses may be
//     different elements, so no such fusion exists.)
//
// `not` stays where it stands: the compiler complements any automaton by
// flipping its finals, so pushing negation inward would gain nothing. The
// passes recurse beneath it, so `not (/a or /b)` becomes a `not` over one
// fused kPathSet atom.
//
// Rewrites preserve the query language exactly; tests/opt_test.cc checks
// this differentially against the unrewritten compilation and the oracle.
#ifndef NW_OPT_REWRITE_H_
#define NW_OPT_REWRITE_H_

#include "query/nwquery.h"

namespace nw {

/// Applies all rewrite passes. Idempotent: RewriteQuery(RewriteQuery(q))
/// is structurally equal to RewriteQuery(q).
Query RewriteQuery(const Query& q);

}  // namespace nw

#endif  // NW_OPT_REWRITE_H_
