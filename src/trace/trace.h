// Program traces as nested words — the application that motivated nested
// words in the first place (the paper's [4], examples/program_traces.cpp):
// an execution is a linear event stream whose calls and returns impose the
// procedure nesting, so stack-sensitive safety properties check in one
// streaming pass, including traces of crashed programs (pending calls)
// and log suffixes (pending returns).
//
// The log syntax is the paper's Figure-1 notation (nw/text.h):
// whitespace-separated tokens `<f` (call into f), `ev` (internal event
// ev), `f>` (return from f). Unlike the XML and JSON front ends, internal
// events carry their OWN symbol — `acquire` streams as internal(acquire),
// not internal(#text) — which is what makes event-level query atoms like
// `balanced acquire release` expressible. `<f>` is a self-contained
// frame (call immediately followed by its return — the XML self-closing
// analog). Malformed logs never fail: a lone `<` or `>` is a #text
// internal, pending calls and returns are first-class.
#ifndef NW_TRACE_TRACE_H_
#define NW_TRACE_TRACE_H_

#include <string>

#include "nw/nested_word.h"
#include "nwa/nwa.h"
#include "stream/token_stream.h"

namespace nw {

/// Incremental pull tokenizer over call/return event logs — one
/// instantiation of the TokenStream concept (stream/token_stream.h). It
/// scans a whitespace-delimited token at a time through the shared byte
/// table and resolves the event name as a view into the log, so Next()
/// allocates only to intern a new name. The interning constructor adds
/// new event names to `*alphabet`; the read-only one looks them up in
/// `alphabet` (a name it lacks takes the catch-all).
class TraceTokenStream {
 public:
  /// Interning: new event names are added to `*alphabet`. `text` and
  /// `alphabet` must outlive the stream.
  TraceTokenStream(const std::string& text, Alphabet* alphabet)
      : text_(text), resolve_(alphabet) {}
  /// Read-only: names resolve against `alphabet`, which is never written.
  TraceTokenStream(const std::string& text, const Alphabet& alphabet)
      : text_(text), resolve_(alphabet) {}
  /// The stream reads `text` incrementally; a temporary would dangle.
  TraceTokenStream(std::string&& text, Alphabet* alphabet) = delete;
  TraceTokenStream(std::string&& text, const Alphabet& alphabet) = delete;
  /// Flushes tallies to the stats sink if one is attached.
  ~TraceTokenStream() { tally_.Flush(pos_); }

  /// Attaches an NWStats sink (obs/stats.h); same flush-once tally
  /// discipline as every front end (stream/token_stream.h).
  void set_stats(StatsSink* stats) { tally_.set_stats(stats); }

  /// Produces the next position into `*out`; false at end of input.
  bool Next(TaggedSymbol* out);

  /// Byte offset of the scan: everything before it has been consumed by
  /// the positions yielded so far (after a `<f>` token's call, the frame
  /// whose return is still queued). SplitTopLevel cuts at these offsets.
  size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  NameResolver resolve_;
  size_t pos_ = 0;
  /// "#text" symbol for degenerate tokens, resolved lazily.
  Symbol text_sym_ = Alphabet::kNoSymbol;
  /// Return queued behind a self-contained `<f>` frame's call.
  Symbol queued_return_ = Alphabet::kNoSymbol;
  /// NWStats tallies, flushed once (see set_stats).
  StreamTally tally_{InputFormat::kTrace};
};

/// Tokenizes `text` into a materialized nested word (TraceTokenStream run
/// to completion). Same conventions as the streaming form.
NestedWord TraceToNestedWord(const std::string& text, Alphabet* alphabet);

/// The `balanced a b` query atom: deterministic NWA accepting traces that
/// keep the a/b discipline — every internal event `a` is matched by an
/// internal event `b` before the enclosing frame returns, never two `a`s
/// without a `b` between, never a `b` without an open `a`, and the trace
/// does not end (or any frame return) with an `a` still open. The
/// generalization of examples/program_traces.cpp's LockDiscipline: frames
/// carry the held/free state on the hierarchical edge, so a frame cannot
/// return while holding what it acquired; pending returns (log suffixes)
/// read the hierarchical initial and are judged as if the unseen caller
/// held nothing. `a` and `b` as call/return symbols have no transition
/// (the discipline speaks about events, not frames named like them).
Nwa BalancedFrameQuery(Symbol a, Symbol b, size_t num_symbols);

}  // namespace nw

#endif  // NW_TRACE_TRACE_H_
