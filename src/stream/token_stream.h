// The multi-format ingestion seam (paper §1: nested words model ANY
// hierarchical stream — XML, JSON, and program traces alike). Every front
// end (xml/xml.h, json/json.h, trace/trace.h) is a pull tokenizer with
// the same shape — the implicit TokenStream concept:
//
//   Stream(const std::string& text, Alphabet* alphabet);        // interns
//   Stream(const std::string& text, const Alphabet& alphabet);  // reads
//   void set_stats(StatsSink* stats);
//   bool Next(TaggedSymbol* out);   // false at end of input
//   size_t pos() const;            // bytes consumed by yielded tokens
//
// A front end scans a run of bytes at a time (a character-class table,
// memchr for the byte that ends a run) and hands each name on as a
// std::string_view into the document, so Next() allocates only when the
// interning constructor meets a new name (and JSON's container stack
// grows with depth). The two constructors differ only in how a name
// becomes a symbol (NameResolver below): the interning one adds new
// names to the alphabet, which materializing a NestedWord and the
// paper's code need because there distinct names must stay distinct;
// the read-only one, which evaluation uses, looks names up in an
// immutable alphabet and sends a name it lacks to the engine's
// catch-all.
//
// Consumers (QueryEngine::RunAll, SplitTopLevel) are templated over the
// concept and select the instantiation from an InputFormat value, so the
// engine, optimizer, bank/freeze, sharding, stats, and attribution layers
// run unchanged for every format — two formats in, zero engine forks.
#ifndef NW_STREAM_TOKEN_STREAM_H_
#define NW_STREAM_TOKEN_STREAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "nw/alphabet.h"

namespace nw {

struct StatsSink;

/// Ingestion front ends the stack can stream. The value is plumbed from
/// the CLI (`nwquery --format=...`) through QueryEngine::RunAll and
/// ShardedEvaluator down to the tokenizer instantiation — nothing above
/// the tokenizer branches on it per token.
enum class InputFormat : uint8_t {
  kXml,    ///< SAX-style XML (xml/xml.h)
  kJson,   ///< JSON objects/arrays as call/return (json/json.h)
  kTrace,  ///< Figure-1 call/return event logs (trace/trace.h)
};

/// "xml" | "json" | "trace" → format; false on anything else.
bool ParseInputFormat(const std::string& name, InputFormat* out);

/// Canonical lowercase name — the `--format` spelling and the stats
/// `stream.format` label.
const char* InputFormatName(InputFormat format);

/// Byte classes the scanners test, one table lookup per byte. They are
/// the C locale's: bytes >= 0x80 are neither name characters nor space.
enum ByteClass : uint8_t {
  kNameByte = 1,   ///< [A-Za-z0-9_-]: an XML element name continues
  kSpaceByte = 2,  ///< ' ' \t \n \v \f \r (std::isspace)
  kJsonBreak = 4,  ///< space or { } [ ] , : " — ends a bare JSON token
};

inline constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    bool alnum = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                 (c >= 'a' && c <= 'z');
    bool space = c == ' ' || (c >= '\t' && c <= '\r');
    bool structural = c == '{' || c == '}' || c == '[' || c == ']' ||
                      c == ',' || c == ':' || c == '"';
    t[c] = (alnum || c == '_' || c == '-' ? kNameByte : 0) |
           (space ? kSpaceByte : 0) |
           (space || structural ? kJsonBreak : 0);
  }
  return t;
}();

/// True when byte `c` is in class `cls`.
inline bool IsByte(char c, ByteClass cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// How a front end turns a name (a view into the document) into a
/// symbol: by interning it into a mutable alphabet, or by looking it up
/// in an immutable one. On the read-only path a name the alphabet lacks
/// resolves to `alphabet.size()`, the id interning would have given it.
/// That id is outside the alphabet, so an engine whose symbol space the
/// alphabet covers (QueryEngine checks `alphabet.size() >= num_symbols`)
/// sends it to its catch-all, exactly as it does an interned new name.
class NameResolver {
 public:
  explicit NameResolver(Alphabet* alphabet)
      : alphabet_(alphabet), intern_(alphabet) {}
  explicit NameResolver(const Alphabet& alphabet)
      : alphabet_(&alphabet),
        absent_(static_cast<Symbol>(alphabet.size())) {}

  Symbol operator()(std::string_view name) const {
    if (intern_ != nullptr) return intern_->Intern(name);
    Symbol s = alphabet_->Find(name);
    return s == Alphabet::kNoSymbol ? absent_ : s;
  }

 private:
  const Alphabet* alphabet_;
  /// The same alphabet when interning; nullptr on the read-only path.
  Alphabet* intern_ = nullptr;
  Symbol absent_ = Alphabet::kNoSymbol;
};

/// Tokenizer-stats tallies shared by every front end. Counts are PLAIN
/// LOCAL COUNTERS — zero atomic traffic per token — flushed into the
/// attached sink exactly once, when the stream ends or is destroyed
/// mid-document after an early stop. The `flushed_` latch makes the
/// end-of-input flush and the destructor flush idempotent as a pair:
/// a stream that reaches the end and is then destroyed reports once,
/// never twice (each front end used to hand-roll this; one shared latch
/// means none of them can regress it independently).
class StreamTally {
 public:
  explicit StreamTally(InputFormat format) : format_(format) {}

  void set_stats(StatsSink* stats) { stats_ = stats; }
  /// Callers gate the per-token tallies on this so the disabled path
  /// costs one branch on a pointer that is constant for the stream.
  bool enabled() const { return stats_ != nullptr; }

  void OnCall() {
    ++calls_;
    if (++depth_ > depth_hwm_) depth_hwm_ = depth_;
  }
  void OnReturn() {
    ++returns_;
    if (depth_ > 0) --depth_;
  }
  void OnInternal() { ++internals_; }

  /// One-shot flush of the tallies into the sink (idempotent): byte and
  /// token counts, the depth high-water mark, and one tick of the
  /// per-format document counter (rendered as the stats `stream.format`
  /// object). `bytes` is the stream's pos() — the consumed prefix, so an
  /// early-stopped stream still reports the work it did.
  void Flush(size_t bytes);

 private:
  InputFormat format_;
  StatsSink* stats_ = nullptr;
  bool flushed_ = false;
  size_t calls_ = 0, returns_ = 0, internals_ = 0;
  size_t depth_ = 0, depth_hwm_ = 0;
};

}  // namespace nw

#endif  // NW_STREAM_TOKEN_STREAM_H_
