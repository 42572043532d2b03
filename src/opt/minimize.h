// Minimization of deterministic nested word automata by partition
// refinement (paper §3.2's congruence view of deterministic NWAs). It
// shrinks the compiler's boolean products, which carry the states of
// every operand pair a run can reach; it was written against the far
// larger output of determinization, which the compiler no longer runs
// (tests/reference_compile.h keeps that lowering as the test oracle and
// as this pass's five-fold benchmark input).
//
// The pass computes a partition of the (reachable) state space that is a
// *congruence* for all three transition kinds: two states merge only if
// they agree on finality, their internal and call successors merge, and —
// because a state plays two roles, as the linear run state and as the
// frame riding a hierarchical edge — they are interchangeable both as the
// linear argument and as the hierarchical argument of δr. This is Moore/
// Hopcroft-style refinement extended to the split alphabet: the return
// signature is read straight out of the sparse 24/16-bit ReturnKey table
// (Nwa::ReturnRules) instead of a dense |Q|²·|Σ| cube.
//
// The computed congruence is the coarsest reachable by iterated splitting
// with CONCRETE return partners in the signatures; it is not always the
// absolute coarsest congruence, which can require merging two pairs
// simultaneously (mutually-swapped duplicate substructure that
// determinization likes to emit). Class-level partner signatures would
// find those merges but are unsound for a two-argument δr — see the
// counterexample in minimize.cc — so this pass trades a little coarseness
// for straightforward correctness.
//
// Partial automata are handled by refining against a virtual sink state
// that absorbs every missing transition; states indistinguishable from the
// sink (no accepting continuation under ANY future input, including any
// frame contents) collapse into it and are pruned from the quotient, with
// one exception: a sink-class state pushed by a surviving call must stay
// materialized, because the run it rides above can still accept before the
// matching return pops the doomed frame.
//
// Language preservation is checked differentially in tests/opt_test.cc
// (randomized queries × randomized well-formed and malformed documents).
#ifndef NW_OPT_MINIMIZE_H_
#define NW_OPT_MINIMIZE_H_

#include "nwa/nwa.h"

namespace nw {

/// Minimization outcome with the metrics the optimizer benches report.
struct MinimizeResult {
  Nwa nwa;               ///< language-equivalent reduced automaton
  size_t states_before;  ///< input state count
  size_t states_after;   ///< output state count (== nwa.num_states())
  size_t classes;        ///< congruence classes incl. the pruned sink class
};

/// Reduces `a` to its congruence quotient. `a` must have an initial state.
/// The result never has an explicit sink (missing transitions reject
/// implicitly), so Totalize()d inputs shed their sink on the way through.
MinimizeResult MinimizeNwa(const Nwa& a);

}  // namespace nw

#endif  // NW_OPT_MINIMIZE_H_
