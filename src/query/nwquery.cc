#include "query/nwquery.h"

#include <cctype>

#include "support/check.h"

namespace nw {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

bool IsKeyword(const std::string& s) {
  return s == "and" || s == "or" || s == "not" || s == "then" ||
         s == "depth" || s == "balanced";
}

/// Token stream over the concrete syntax. Token kinds are distinguished
/// by `text`: "/", "//", "*", "(", ")", ">=", names, and digit strings;
/// the empty string is end-of-input.
struct Lexer {
  const std::string& in;
  size_t pos = 0;
  std::string tok;
  size_t tok_pos = 0;

  explicit Lexer(const std::string& text) : in(text) { Advance(); }

  Status ErrorAt(const std::string& what) const {
    return Status::Error("query parse error at offset " +
                         std::to_string(tok_pos) + ": " + what);
  }

  void Advance() {
    while (pos < in.size() &&
           std::isspace(static_cast<unsigned char>(in[pos]))) {
      ++pos;
    }
    tok_pos = pos;
    tok.clear();
    if (pos >= in.size()) return;
    char c = in[pos];
    if (c == '/') {
      tok = (pos + 1 < in.size() && in[pos + 1] == '/') ? "//" : "/";
      pos += tok.size();
    } else if (c == '*' || c == '(' || c == ')') {
      tok = std::string(1, c);
      ++pos;
    } else if (c == '>' && pos + 1 < in.size() && in[pos + 1] == '=') {
      tok = ">=";
      pos += 2;
    } else if (IsNameChar(c)) {
      while (pos < in.size() && IsNameChar(in[pos])) tok += in[pos++];
    } else {
      tok = std::string(1, c);  // unknown char: surfaced by the parser
      ++pos;
    }
  }

  bool AtEnd() const { return tok.empty(); }
  bool Is(const std::string& t) const { return tok == t; }
  bool Eat(const std::string& t) {
    if (!Is(t)) return false;
    Advance();
    return true;
  }
  bool IsName() const {
    return !tok.empty() && IsNameChar(tok[0]) &&
           !std::isdigit(static_cast<unsigned char>(tok[0])) &&
           !IsKeyword(tok);
  }
  bool IsInt() const {
    if (tok.empty()) return false;
    for (char c : tok) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    }
    return true;
  }
};

struct Parser {
  /// Cap on `not`/paren nesting: recursion in ParseUnary is bounded so a
  /// pathological query line returns a parse error instead of
  /// overflowing the C++ stack.
  static constexpr int kMaxNesting = 256;

  Lexer lex;
  Alphabet* alphabet;
  int nesting = 0;

  Parser(const std::string& text, Alphabet* a) : lex(text), alphabet(a) {}

  Result<Query> ParseOr() {
    Result<Query> l = ParseAnd();
    if (!l.ok()) return l;
    Query q = l.Take();
    while (lex.Eat("or")) {
      Result<Query> r = ParseAnd();
      if (!r.ok()) return r;
      q = Query::Or(std::move(q), r.Take());
    }
    return q;
  }

  Result<Query> ParseAnd() {
    Result<Query> l = ParseUnary();
    if (!l.ok()) return l;
    Query q = l.Take();
    while (lex.Eat("and")) {
      Result<Query> r = ParseUnary();
      if (!r.ok()) return r;
      q = Query::And(std::move(q), r.Take());
    }
    return q;
  }

  Result<Query> ParseUnary() {
    if (++nesting > kMaxNesting) {
      --nesting;
      return lex.ErrorAt("query nested too deeply");
    }
    Result<Query> out = ParseUnaryInner();
    --nesting;
    return out;
  }

  Result<Query> ParseUnaryInner() {
    if (lex.Eat("not")) {
      Result<Query> r = ParseUnary();
      if (!r.ok()) return r;
      return Query::Not(r.Take());
    }
    if (lex.Eat("(")) {
      Result<Query> r = ParseOr();
      if (!r.ok()) return r;
      if (!lex.Eat(")")) return lex.ErrorAt("expected ')'");
      return r;
    }
    return ParseAtom();
  }

  Result<Query> ParseAtom() {
    if (lex.Is("/") || lex.Is("//")) return ParsePath();
    if (lex.Eat("depth")) {
      if (!lex.Eat(">=")) return lex.ErrorAt("expected '>=' after 'depth'");
      if (!lex.IsInt()) return lex.ErrorAt("expected integer depth bound");
      size_t k = 0;
      for (char c : lex.tok) {
        k = k * 10 + static_cast<size_t>(c - '0');
        // MinDepthQuery allocates k+1 states; Nwa caps states at 2^24.
        if (k >= (1u << 24)) return lex.ErrorAt("depth bound too large");
      }
      lex.Advance();
      return Query::MinDepth(k);
    }
    if (lex.Eat("balanced")) {
      if (!lex.IsName()) {
        return lex.ErrorAt("expected event name after 'balanced'");
      }
      Symbol a = alphabet->Intern(lex.tok);
      lex.Advance();
      if (!lex.IsName()) {
        return lex.ErrorAt("expected second event name after 'balanced'");
      }
      Symbol b = alphabet->Intern(lex.tok);
      lex.Advance();
      return Query::Balanced(a, b);
    }
    if (lex.IsName()) return ParseOrder();
    if (lex.AtEnd()) return lex.ErrorAt("unexpected end of query");
    return lex.ErrorAt("unexpected token '" + lex.tok + "'");
  }

  Result<Query> ParsePath() {
    std::vector<PathStep> steps;
    while (lex.Is("/") || lex.Is("//")) {
      Axis axis = lex.Is("//") ? Axis::kDescendant : Axis::kChild;
      lex.Advance();
      if (lex.Eat("*")) {
        steps.push_back({axis, Alphabet::kNoSymbol});
      } else if (lex.IsName()) {
        steps.push_back({axis, alphabet->Intern(lex.tok)});
        lex.Advance();
      } else {
        return lex.ErrorAt("expected element name or '*' after axis");
      }
    }
    return Query::Path(std::move(steps));
  }

  Result<Query> ParseOrder() {
    std::vector<Symbol> names;
    names.push_back(alphabet->Intern(lex.tok));
    lex.Advance();
    if (!lex.Is("then")) {
      return lex.ErrorAt("expected 'then' after element name");
    }
    while (lex.Eat("then")) {
      if (!lex.IsName()) {
        return lex.ErrorAt("expected element name after 'then'");
      }
      names.push_back(alphabet->Intern(lex.tok));
      lex.Advance();
    }
    return Query::Order(std::move(names));
  }
};

/// Precedence levels for minimal-paren printing.
int Prec(Query::Op op) {
  switch (op) {
    case Query::Op::kOr:
    case Query::Op::kPathSet:  // prints as an `or` chain of its paths
      return 1;
    case Query::Op::kAnd:
      return 2;
    case Query::Op::kNot:
      return 3;
    default:
      return 4;  // atoms never need parens
  }
}

void FormatSteps(const std::vector<PathStep>& steps, const Alphabet& alphabet,
                 std::string* out) {
  for (const PathStep& s : steps) {
    *out += s.axis == Axis::kDescendant ? "//" : "/";
    *out += s.name == Alphabet::kNoSymbol ? "*" : alphabet.Name(s.name);
  }
}

void Format(const Query& q, const Alphabet& alphabet, int parent_prec,
            std::string* out) {
  int prec = Prec(q.op());
  bool parens = prec < parent_prec;
  if (parens) *out += "(";
  switch (q.op()) {
    case Query::Op::kPath:
      FormatSteps(q.steps(), alphabet, out);
      break;
    case Query::Op::kPathSet: {
      // Re-parses to the equivalent `or` chain of path atoms.
      bool first = true;
      for (const auto& steps : q.step_sets()) {
        if (!first) *out += " or ";
        first = false;
        FormatSteps(steps, alphabet, out);
      }
      break;
    }
    case Query::Op::kOrder: {
      bool first = true;
      for (Symbol s : q.names()) {
        if (!first) *out += " then ";
        first = false;
        *out += alphabet.Name(s);
      }
      break;
    }
    case Query::Op::kMinDepth:
      *out += "depth >= " + std::to_string(q.min_depth());
      break;
    case Query::Op::kBalanced:
      *out += "balanced " + alphabet.Name(q.names()[0]) + " " +
              alphabet.Name(q.names()[1]);
      break;
    case Query::Op::kAnd:
      Format(q.left(), alphabet, prec, out);
      *out += " and ";
      // Right operand at prec+1: `a and (b and c)` keeps its parens so
      // the printed form re-parses to the same (left-associated) tree.
      Format(q.right(), alphabet, prec + 1, out);
      break;
    case Query::Op::kOr:
      Format(q.left(), alphabet, prec, out);
      *out += " or ";
      Format(q.right(), alphabet, prec + 1, out);
      break;
    case Query::Op::kNot:
      *out += "not ";
      Format(q.left(), alphabet, prec, out);
      break;
  }
  if (parens) *out += ")";
}

}  // namespace

Query Query::Path(std::vector<PathStep> steps) {
  NW_CHECK_MSG(!steps.empty(), "path query needs at least one step");
  auto n = std::make_shared<Node>();
  n->op = Op::kPath;
  n->steps = std::move(steps);
  return Query(std::move(n));
}

Query Query::PathSet(std::vector<std::vector<PathStep>> step_sets) {
  NW_CHECK_MSG(!step_sets.empty(), "path set needs at least one path");
  for (const auto& steps : step_sets) {
    NW_CHECK_MSG(!steps.empty(), "path set member needs at least one step");
  }
  auto n = std::make_shared<Node>();
  n->op = Op::kPathSet;
  n->step_sets = std::move(step_sets);
  return Query(std::move(n));
}

Query Query::Order(std::vector<Symbol> names) {
  NW_CHECK_MSG(names.size() >= 2, "order query needs at least two names");
  auto n = std::make_shared<Node>();
  n->op = Op::kOrder;
  n->names = std::move(names);
  return Query(std::move(n));
}

Query Query::MinDepth(size_t k) {
  auto n = std::make_shared<Node>();
  n->op = Op::kMinDepth;
  n->depth = k;
  return Query(std::move(n));
}

Query Query::Balanced(Symbol a, Symbol b) {
  NW_CHECK_MSG(a != Alphabet::kNoSymbol && b != Alphabet::kNoSymbol,
               "balanced query needs two real event symbols");
  auto n = std::make_shared<Node>();
  n->op = Op::kBalanced;
  n->names = {a, b};
  return Query(std::move(n));
}

Query Query::And(Query l, Query r) {
  auto n = std::make_shared<Node>();
  n->op = Op::kAnd;
  n->left = std::move(l.node_);
  n->right = std::move(r.node_);
  return Query(std::move(n));
}

Query Query::Or(Query l, Query r) {
  auto n = std::make_shared<Node>();
  n->op = Op::kOr;
  n->left = std::move(l.node_);
  n->right = std::move(r.node_);
  return Query(std::move(n));
}

Query Query::Not(Query q) {
  auto n = std::make_shared<Node>();
  n->op = Op::kNot;
  n->left = std::move(q.node_);
  return Query(std::move(n));
}

bool Query::Equal(const Node& a, const Node& b) {
  if (a.op != b.op || a.steps != b.steps || a.step_sets != b.step_sets ||
      a.names != b.names || a.depth != b.depth) {
    return false;
  }
  if ((a.left == nullptr) != (b.left == nullptr)) return false;
  if (a.left && !Equal(*a.left, *b.left)) return false;
  if ((a.right == nullptr) != (b.right == nullptr)) return false;
  if (a.right && !Equal(*a.right, *b.right)) return false;
  return true;
}

Result<Query> ParseQuery(const std::string& text, Alphabet* alphabet) {
  Parser p(text, alphabet);
  Result<Query> q = p.ParseOr();
  if (!q.ok()) return q;
  if (!p.lex.AtEnd()) {
    return p.lex.ErrorAt("trailing input '" + p.lex.tok + "'");
  }
  return q;
}

std::string FormatQuery(const Query& q, const Alphabet& alphabet) {
  std::string out;
  Format(q, alphabet, 0, &out);
  return out;
}

Result<ParsedBank> ParseBank(const std::vector<std::string>& texts,
                             size_t* failed) {
  ParsedBank bank;
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<Query> q = ParseQuery(texts[i], &bank.alphabet);
    if (!q.ok()) {
      if (failed != nullptr) *failed = i;
      return q.status();
    }
    bank.queries.push_back(q.Take());
    bank.texts.push_back(FormatQuery(bank.queries.back(), bank.alphabet));
  }
  bank.alphabet.Intern("#text");
  bank.other = bank.alphabet.Intern("%other");
  return bank;
}

}  // namespace nw
