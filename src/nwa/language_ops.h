// Closure constructions for regular languages of nested words (§3.2):
// boolean operations, concatenation, Kleene-*, and reversal. Prefix/suffix
// closure and insertion live in closure_ext.h.
//
// The boolean operations come in two forms. Over Nnwa, union is a disjoint
// sum, intersection a product, and complement pays for determinization.
// Over deterministic Nwa, all three stay deterministic with no subset
// construction: `and`/`or` are one synchronous product and `not` flips the
// finals of the totalized automaton (§3: deterministic NWAs are closed
// under the boolean operations). The query compiler uses the latter.
//
// Concatenation and star are the constructions where nested words differ
// most from plain words: a pending call of one factor may be matched by a
// pending return of a later factor, so the automaton must recognize, at a
// pop, whether the popped frame belongs to the current factor. Tagged
// hierarchical states (concat) and the floor bit (star) achieve this; see
// DESIGN.md §3.
#ifndef NW_NWA_LANGUAGE_OPS_H_
#define NW_NWA_LANGUAGE_OPS_H_

#include "nwa/nnwa.h"
#include "nwa/nwa.h"

namespace nw {

/// L(a) ∪ L(b): disjoint sum.
Nnwa Union(const Nnwa& a, const Nnwa& b);

/// L(a) ∩ L(b): synchronous product (hierarchical edges carry pairs).
Nnwa Intersect(const Nnwa& a, const Nnwa& b);

/// NW(Σ) \ L(a): determinize, totalize, flip finals. Deterministic result.
Nwa Complement(const Nnwa& a);

/// Complement lifted back to the nondeterministic representation, for
/// feeding into further constructions.
Nnwa ComplementN(const Nnwa& a);

/// Connective of a deterministic Product: which pairs accept.
enum class ProductOp { kAnd, kOr };

/// L(a) ∩ L(b) (kAnd) or L(a) ∪ L(b) (kOr) for deterministic a and b over
/// one alphabet, as a deterministic NWA with no subset construction. States
/// are the reachable pairs of operand states; a call pushes the pair of the
/// operands' frames, a return reads the pair it pops, and a pending return
/// reads the pair of the operands' hier_initial(). A missing transition
/// sends its component to the operand's sink, so a partial operand behaves
/// as its totalization; pairs that can no longer accept (kAnd: a component
/// in its sink; kOr: both) are left out. Return rules are exact on the
/// (state, frame) pairs a run can meet; the others are don't-cares. Both
/// operands need initial states.
Nwa Product(const Nwa& a, const Nwa& b, ProductOp op);

/// NW(Σ) \ L(a) for a deterministic a: the totalization of `a` with every
/// final flipped, built over the reachable states as Product builds its
/// pairs. The operand's sink becomes a real accepting state when a run
/// can reach it.
Nwa Complement(const Nwa& a);

/// L(a) · L(b): concatenation. Hierarchical frames pushed in the a-phase
/// read as pending (P0 of b) when popped in the b-phase.
Nnwa Concat(const Nnwa& a, const Nnwa& b);

/// L(a)*: Kleene star (includes ε). Hierarchical frames carry the floor
/// bit: "was the stack at the current factor's floor before this push" —
/// a pop at the floor belongs to an earlier factor and reads as pending.
Nnwa Star(const Nnwa& a);

/// { reverse(n) : n ∈ L(a) } — reversal swaps the roles of call and
/// return transitions (§2.4 reversal flips hierarchical edges).
Nnwa ReverseLang(const Nnwa& a);

}  // namespace nw

#endif  // NW_NWA_LANGUAGE_OPS_H_
