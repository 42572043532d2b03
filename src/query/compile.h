// NWQuery → deterministic NWA compilation (paper §3.2): each query atom
// becomes a small deterministic automaton over the tagged stream, and the
// boolean connectives keep it deterministic — `and`/`or` build the
// synchronous product of their operands and `not` flips the finals of its
// totalized operand (Product and Complement in language_ops.h). No subset
// construction runs on the query path.
//
// Atom constructions:
//  * Path atoms (/a//b/*) compile the root-path language to a word regex
//    (child step = name, descendant step = Σ* name, wildcard = Σ), then a
//    DFA; the NWA advances the DFA along the current ancestor chain —
//    calls step it forward pushing the parent context on the hierarchical
//    edge, returns restore it — and latches an accept state the moment
//    some element's root path lands in the DFA's language. This is the
//    paper's point that word automata track linear order while NWAs track
//    the hierarchy with the same streaming interface.
//  * Order atoms (a then b) reuse PatternOrderQuery (flat NWA, §3.3).
//  * Depth guards (depth >= k) reuse MinDepthQuery.
#ifndef NW_QUERY_COMPILE_H_
#define NW_QUERY_COMPILE_H_

#include "nwa/nwa.h"
#include "query/nwquery.h"

namespace nw {

/// Compiles `q` to a deterministic NWA over symbols [0, num_symbols).
/// Every symbol interned in the query must be < num_symbols; documents
/// streamed against the result must remap out-of-range symbols (names
/// interned after compilation) to a fixed in-range catch-all — see
/// QueryEngine::set_other_symbol.
Nwa CompileQuery(const Query& q, size_t num_symbols);

/// The path-atom automaton exposed for tests: accepts exactly the streams
/// in which some element's chain of enclosing element names (root first,
/// the element itself last) matches `steps`.
Nwa CompilePathNwa(const std::vector<PathStep>& steps, size_t num_symbols);

/// Path-set atom (Query::Op::kPathSet): one deterministic automaton for
/// the UNION of the member path languages — the root-path regexes are
/// alternated before the regex → DFA → NWA lowering, so merged sibling
/// paths share DFA states along common prefixes instead of multiplying
/// through a product of per-path automata.
Nwa CompilePathSetNwa(const std::vector<std::vector<PathStep>>& step_sets,
                      size_t num_symbols);

}  // namespace nw

#endif  // NW_QUERY_COMPILE_H_
