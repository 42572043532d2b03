// NWQuery — a small hierarchical path-query language over XML-as-nested-
// words (paper §1, §2.2): the queries the introduction builds by hand
// (pattern order, minimum depth, structural paths) become a language that
// compiles to deterministic NWAs (compile.h) and evaluates in one
// streaming pass (engine.h).
//
// Grammar (recursive descent, see ParseQuery):
//
//   query  := or
//   or     := and ("or" and)*
//   and    := unary ("and" unary)*
//   unary  := "not" unary | "(" query ")" | atom
//   atom   := path | order | guard | balanced
//   path   := ("/" | "//") step (("/" | "//") step)*
//   step   := NAME | "*"
//   order  := NAME "then" NAME ("then" NAME)*
//   guard  := "depth" ">=" INT
//   balanced := "balanced" NAME NAME
//
// Semantics over a tagged stream (open tag = call, close tag = return,
// text = internal):
//   /a/b     some root element `a` has a child element `b`
//   //b      some element `b` occurs at any depth
//   /a//b/*  structural mix: child, descendant, and wildcard steps
//   a then b an open tag `a` precedes an open tag `b` in document order
//   depth>=k the nesting depth of open elements reaches k
//   balanced a b
//            every internal event `a` is matched by an internal `b`
//            within its enclosing call frame (trace/trace.h) — a
//            stack-sensitive safety property aimed at the trace front
//            end, where internal events carry their own symbols
// Boolean operators combine sub-queries; `not` binds tightest, then
// `and`, then `or`. Malformed documents are first-class: a close tag
// always closes the innermost open element (regardless of name), and a
// stray close at top level leaves the context at the root.
//
// NAME tokens are interned into the caller's Alphabet; the keywords
// (and, or, not, then, depth, balanced) are reserved and cannot name
// elements.
#ifndef NW_QUERY_NWQUERY_H_
#define NW_QUERY_NWQUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "nw/alphabet.h"
#include "support/result.h"

namespace nw {

/// Axis of one path step: `/x` steps to a child, `//x` to a descendant.
enum class Axis : uint8_t {
  kChild,
  kDescendant,
};

/// One step of a path query. `name == Alphabet::kNoSymbol` is the
/// wildcard `*`.
struct PathStep {
  Axis axis;
  Symbol name;

  friend bool operator==(const PathStep&, const PathStep&) = default;
};

/// An immutable NWQuery expression tree. Build with the static
/// constructors or ParseQuery; share freely (nodes are refcounted),
/// mirroring the Regex combinator idiom.
class Query {
 public:
  enum class Op : uint8_t {
    kPath,      ///< /a//b/* — structural path from the root
    kOrder,     ///< a then b then c — open tags in document order
    kMinDepth,  ///< depth >= k
    kBalanced,  ///< balanced a b — frame-local a/b event discipline
    kAnd,
    kOr,
    kNot,
    /// Disjunction of path atoms fused into ONE atom: some element's root
    /// path matches ANY of the step vectors. Never produced by the parser;
    /// the optimizer's rewrite pass (opt/rewrite.h) merges `or`-sibling
    /// path atoms into this so the compiler lowers them through a single
    /// regex → DFA → NWA instead of a product of per-path automata.
    kPathSet,
  };

  /// Path atom; `steps` must be non-empty.
  static Query Path(std::vector<PathStep> steps);
  /// Path-set atom; each member must be non-empty, and there must be at
  /// least one member.
  static Query PathSet(std::vector<std::vector<PathStep>> step_sets);
  /// Order atom; `names` must have at least two entries.
  static Query Order(std::vector<Symbol> names);
  /// Depth guard `depth >= k`.
  static Query MinDepth(size_t k);
  /// Balanced atom `balanced a b` (names = {a, b}; trace/trace.h has the
  /// full automaton semantics).
  static Query Balanced(Symbol a, Symbol b);
  static Query And(Query l, Query r);
  static Query Or(Query l, Query r);
  static Query Not(Query q);

  Op op() const { return node_->op; }
  /// Steps of a kPath node.
  const std::vector<PathStep>& steps() const { return node_->steps; }
  /// Member paths of a kPathSet node.
  const std::vector<std::vector<PathStep>>& step_sets() const {
    return node_->step_sets;
  }
  /// Names of a kOrder node.
  const std::vector<Symbol>& names() const { return node_->names; }
  /// Threshold of a kMinDepth node.
  size_t min_depth() const { return node_->depth; }
  /// Left operand (kAnd/kOr) or sole operand (kNot).
  Query left() const {
    NW_CHECK_MSG(node_->left != nullptr, "node has no left operand");
    return Query(node_->left);
  }
  /// Right operand (kAnd/kOr).
  Query right() const {
    NW_CHECK_MSG(node_->right != nullptr, "node has no right operand");
    return Query(node_->right);
  }

  bool is_atom() const {
    return node_->op == Op::kPath || node_->op == Op::kOrder ||
           node_->op == Op::kMinDepth || node_->op == Op::kPathSet ||
           node_->op == Op::kBalanced;
  }

  /// Structural equality (same tree shape and payloads).
  friend bool operator==(const Query& a, const Query& b) {
    return Equal(*a.node_, *b.node_);
  }

 private:
  struct Node {
    Op op;
    std::vector<PathStep> steps;
    std::vector<std::vector<PathStep>> step_sets;
    std::vector<Symbol> names;
    size_t depth = 0;
    std::shared_ptr<const Node> left, right;
  };

  explicit Query(std::shared_ptr<const Node> n) : node_(std::move(n)) {}
  static bool Equal(const Node& a, const Node& b);

  std::shared_ptr<const Node> node_;
};

/// Parses one NWQuery expression. NAMEs are interned into `*alphabet`;
/// errors carry a position and a description.
Result<Query> ParseQuery(const std::string& text, Alphabet* alphabet);

/// Formats a query in the concrete syntax with minimal parentheses.
/// FormatQuery ∘ ParseQuery is a normal form: re-parsing the output
/// yields a structurally equal query.
std::string FormatQuery(const Query& q, const Alphabet& alphabet);

}  // namespace nw

#endif  // NW_QUERY_NWQUERY_H_
