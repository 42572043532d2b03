// Reference boolean lowering: the way the query compiler (query/compile.h)
// lowered `and`/`or`/`not` before it built deterministic products. Each
// boolean node went through the nondeterministic closure ops — Intersect,
// Union, ComplementN (which determinizes its operand) — and the whole
// formula was determinized once more at the top (nwa/determinize.h, the
// paper's 2^O(s²) construction). Atoms compile exactly as they do now.
// The lowering is kept here as it was, as the oracle the product
// construction is compared against (tests/opt_test.cc), and as the input
// the minimizer's five-fold bar was written for (OptMinimize in
// tests/opt_test.cc, the E-OPT table of bench/bench_query_optimizer.cc).
// Its cost grows fast with `not` nesting: keep formulas small.
#ifndef NW_TESTS_REFERENCE_COMPILE_H_
#define NW_TESTS_REFERENCE_COMPILE_H_

#include "nwa/determinize.h"
#include "nwa/language_ops.h"
#include "nwa/nnwa.h"
#include "nwa/nwa.h"
#include "query/compile.h"
#include "query/nwquery.h"

namespace nw {
namespace reference {

/// Recursive lowering to the nondeterministic representation the closure
/// ops compose.
inline Nnwa ToNnwa(const Query& q, size_t num_symbols) {
  switch (q.op()) {
    case Query::Op::kAnd:
      return Intersect(ToNnwa(q.left(), num_symbols),
                       ToNnwa(q.right(), num_symbols));
    case Query::Op::kOr:
      return Union(ToNnwa(q.left(), num_symbols),
                   ToNnwa(q.right(), num_symbols));
    case Query::Op::kNot:
      return ComplementN(ToNnwa(q.left(), num_symbols));
    default:
      return Nnwa::FromNwa(nw::CompileQuery(q, num_symbols));
  }
}

/// Compiles `q` as the compiler did before: atoms directly, every boolean
/// combination through ToNnwa and a top-level determinization.
inline Nwa CompileQuery(const Query& q, size_t num_symbols) {
  if (q.is_atom()) return nw::CompileQuery(q, num_symbols);
  return Determinize(ToNnwa(q, num_symbols)).nwa;
}

}  // namespace reference
}  // namespace nw

#endif  // NW_TESTS_REFERENCE_COMPILE_H_
