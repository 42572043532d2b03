// JSON as nested words (paper §1: the nesting of a hierarchical data
// format IS the call/return structure — XML is merely the instance the
// paper spells out). A keyed container opens a call on its key and closes
// the matching return, so `{"a":{"b":1}}` streams exactly like
// `<a><b>1</b></a>` and the whole query/opt/serve stack runs unchanged.
//
// Mapping (see docs/QUERY_LANGUAGE.md for the full table):
//   "k": { ... } / "k": [ ... ]   call(k) ... return(k)
//   "k": scalar                   call(k), internal(#text), return(k)
//   { / [ anonymous, nested       call(#obj) / call(#arr) ... matching
//                                 return (addressable only via `*`
//                                 wildcards — '#' cannot appear in a
//                                 query NAME)
//   { / [ anonymous, top level    SILENT — the document envelope streams
//                                 no tokens, so `{"a":1}` and a bare
//                                 `"a":1` yield the same nested word and
//                                 path queries address `/a` directly
//   bare scalar                   internal(#text)
//   , : whitespace                skipped
//
// Malformed input never fails, mirroring the documented XML semantics:
// a closer closes the innermost open container regardless of brace kind,
// a stray closer at top level is silent (the envelope's closer is), an
// unclosed container stays a pending call, an unterminated string runs to
// the end of input, and any garbage run becomes a #text internal.
#ifndef NW_JSON_JSON_H_
#define NW_JSON_JSON_H_

#include <string>
#include <vector>

#include "nw/nested_word.h"
#include "stream/token_stream.h"

namespace nw {

/// Incremental pull tokenizer over JSON text — one instantiation of the
/// TokenStream concept (stream/token_stream.h). It scans a run at a
/// time and never builds a string's contents: scalar strings are
/// skipped, and an object key's name is its raw bytes between the quotes
/// (escapes included), handed on as a view into the document, so Next()
/// allocates only to intern a new key. The only resident state is the
/// container stack (bounded by nesting depth) and a two-slot queue for a
/// keyed scalar's internal+return. The interning constructor adds new
/// keys to `*alphabet`; the read-only one looks them up in `alphabet` (a
/// key it lacks takes the catch-all). The pseudo-symbols "#text", "#obj",
/// and "#arr" resolve lazily on first use.
class JsonTokenStream {
 public:
  /// Interning: new keys are added to `*alphabet`. `text` and `alphabet`
  /// must outlive the stream.
  JsonTokenStream(const std::string& text, Alphabet* alphabet)
      : text_(text), resolve_(alphabet) {}
  /// Read-only: keys resolve against `alphabet`, which is never written.
  JsonTokenStream(const std::string& text, const Alphabet& alphabet)
      : text_(text), resolve_(alphabet) {}
  /// The stream reads `text` incrementally; a temporary would dangle.
  JsonTokenStream(std::string&& text, Alphabet* alphabet) = delete;
  JsonTokenStream(std::string&& text, const Alphabet& alphabet) = delete;
  /// Flushes tallies to the stats sink if one is attached.
  ~JsonTokenStream() { tally_.Flush(pos_); }

  /// Attaches an NWStats sink (obs/stats.h); same flush-once tally
  /// discipline as every front end (stream/token_stream.h).
  void set_stats(StatsSink* stats) { tally_.set_stats(stats); }

  /// Produces the next position into `*out`; false at end of input.
  bool Next(TaggedSymbol* out);

  /// Byte offset of the scan: everything before it has been consumed by
  /// the positions yielded so far (after a keyed scalar's call, the
  /// scalar whose internal and return are still queued — the XML
  /// self-closing-tag precedent). SplitTopLevel cuts at these offsets.
  size_t pos() const { return pos_; }

 private:
  /// Lazily resolved pseudo-symbols, cached after the first use.
  Symbol TextSym();
  Symbol ObjSym();
  Symbol ArrSym();
  /// Emits a scalar: a keyed one becomes the call/#text/return triple
  /// (two tokens queued), a bare one a single #text internal.
  bool EmitScalar(TaggedSymbol* out);

  const std::string& text_;
  NameResolver resolve_;
  size_t pos_ = 0;
  Symbol text_sym_ = Alphabet::kNoSymbol;
  Symbol obj_sym_ = Alphabet::kNoSymbol;
  Symbol arr_sym_ = Alphabet::kNoSymbol;
  /// Key awaiting its value (`"k" :` already consumed); kNoSymbol = none.
  Symbol pending_key_ = Alphabet::kNoSymbol;
  /// Open containers: the symbol their return will carry; kNoSymbol
  /// marks a silent container (the top-level envelope).
  std::vector<Symbol> stack_;
  /// Tokens queued behind the one Next() just returned (a keyed scalar
  /// yields three positions from one scan).
  TaggedSymbol queue_[2];
  size_t queue_len_ = 0, queue_pos_ = 0;
  /// NWStats tallies, flushed once (see set_stats).
  StreamTally tally_{InputFormat::kJson};
};

/// Tokenizes `text` into a materialized nested word (JsonTokenStream run
/// to completion). Same conventions as the streaming form.
NestedWord JsonToNestedWord(const std::string& text, Alphabet* alphabet);

}  // namespace nw

#endif  // NW_JSON_JSON_H_
