#include "query/compile.h"

#include "nwa/language_ops.h"
#include "support/check.h"
#include "trace/trace.h"
#include "wordauto/dfa.h"
#include "wordauto/regex.h"
#include "xml/xml.h"

namespace nw {

namespace {

/// Word regex over element names whose language is the set of root paths
/// matched by `steps`: child steps append their name, descendant steps
/// append Σ* first, wildcards append Σ.
Regex PathRegex(const std::vector<PathStep>& steps, size_t num_symbols) {
  Regex r = Regex::Eps();
  for (const PathStep& s : steps) {
    if (s.axis == Axis::kDescendant) {
      r = Regex::Cat(std::move(r), Regex::Star(Regex::Any(num_symbols)));
    }
    r = Regex::Cat(std::move(r), s.name == Alphabet::kNoSymbol
                                     ? Regex::Any(num_symbols)
                                     : Regex::Sym(s.name));
  }
  return r;
}

/// Checks every named step is inside the compiled symbol space.
void CheckSteps(const std::vector<PathStep>& steps, size_t num_symbols) {
  NW_CHECK(!steps.empty());
  for (const PathStep& s : steps) {
    NW_CHECK(s.name == Alphabet::kNoSymbol || s.name < num_symbols);
  }
}

/// Shared tail of the path constructions: the NWA advances the word DFA of
/// `paths` (the wanted root-path language) along the current ancestor
/// chain — calls step it forward pushing the parent context on the
/// hierarchical edge, returns restore it — and latches an accept state the
/// moment some element's root path lands in the DFA's language.
Nwa PathLanguageNwa(const Regex& paths, size_t num_symbols) {
  const Dfa d = paths.Compile(num_symbols).Determinize().Totalize();
  // NWA state i mirrors DFA state i (the DFA state of the current
  // ancestor-name chain); one extra latch state records "some element
  // already matched".
  Nwa a(num_symbols);
  for (StateId q = 0; q < d.num_states(); ++q) a.AddState(false);
  StateId latch = a.AddState(true);
  a.set_initial(d.initial());
  // A pending return resets the context to the root: hierarchical edges
  // of pending returns read the DFA's initial state.
  a.set_hier_initial(d.initial());
  for (StateId q = 0; q < d.num_states(); ++q) {
    for (Symbol s = 0; s < num_symbols; ++s) {
      // Text and other internal positions do not change the element path.
      a.SetInternal(q, s, q);
      // Opening <s> extends the path; the parent context q rides the
      // hierarchical edge and is restored at the matching close tag.
      StateId t = d.Next(q, s);
      a.SetCall(q, s, d.is_final(t) ? latch : t, q);
      for (StateId h = 0; h < d.num_states(); ++h) {
        a.SetReturn(q, h, s, h);
      }
      // A frame pushed by the latch can only be observed by the latch
      // itself (all latch successors stay latched), so (q, latch) pairs
      // need no rule.
    }
  }
  for (Symbol s = 0; s < num_symbols; ++s) {
    a.SetInternal(latch, s, latch);
    a.SetCall(latch, s, latch, latch);
    for (StateId h = 0; h <= latch; ++h) a.SetReturn(latch, h, s, latch);
  }
  return a;
}

}  // namespace

Nwa CompilePathNwa(const std::vector<PathStep>& steps, size_t num_symbols) {
  CheckSteps(steps, num_symbols);
  return PathLanguageNwa(PathRegex(steps, num_symbols), num_symbols);
}

Nwa CompilePathSetNwa(const std::vector<std::vector<PathStep>>& step_sets,
                      size_t num_symbols) {
  NW_CHECK(!step_sets.empty());
  Regex r = Regex::Empty();
  for (const auto& steps : step_sets) {
    CheckSteps(steps, num_symbols);
    r = Regex::Alt(std::move(r), PathRegex(steps, num_symbols));
  }
  return PathLanguageNwa(r, num_symbols);
}

Nwa CompileQuery(const Query& q, size_t num_symbols) {
  switch (q.op()) {
    case Query::Op::kAnd:
      return Product(CompileQuery(q.left(), num_symbols),
                     CompileQuery(q.right(), num_symbols), ProductOp::kAnd);
    case Query::Op::kOr:
      return Product(CompileQuery(q.left(), num_symbols),
                     CompileQuery(q.right(), num_symbols), ProductOp::kOr);
    case Query::Op::kNot:
      return Complement(CompileQuery(q.left(), num_symbols));
    case Query::Op::kPath:
      return CompilePathNwa(q.steps(), num_symbols);
    case Query::Op::kPathSet:
      return CompilePathSetNwa(q.step_sets(), num_symbols);
    case Query::Op::kOrder:
      for (Symbol s : q.names()) NW_CHECK(s < num_symbols);
      return PatternOrderQuery(q.names(), num_symbols);
    case Query::Op::kMinDepth:
      return MinDepthQuery(q.min_depth(), num_symbols);
    case Query::Op::kBalanced:
      for (Symbol s : q.names()) NW_CHECK(s < num_symbols);
      return BalancedFrameQuery(q.names()[0], q.names()[1], num_symbols);
  }
  __builtin_unreachable();
}

}  // namespace nw
