// Reference protocol decoder: the request parser daemon/protocol.cc used
// before it decoded JSON strings by runs. Its ParseString appends the
// string one byte at a time and tests every byte for '"' and '\\'. The
// parser is kept here as it was, as the oracle the run-decoding parser
// is compared against (tests/daemon_test.cc): the same request, or the
// same error message at the same byte offset, for every line.
#ifndef NW_TESTS_REFERENCE_PROTOCOL_H_
#define NW_TESTS_REFERENCE_PROTOCOL_H_

#include <cctype>
#include <cstdint>
#include <string>

#include "daemon/protocol.h"
#include "support/result.h"

namespace nw {
namespace reference {

/// Cursor over one request line. Every Fail() message names the byte
/// offset so a malformed client is debuggable from the error echo alone.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  Status Fail(const std::string& what) const {
    return Status::Error("protocol: " + what + " at byte " +
                         std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// JSON string body after the opening quote was consumed. Handles the
  /// standard escapes; \uXXXX decodes to UTF-8, pairing surrogates, so
  /// a document Python escaped with ensure_ascii round-trips exactly.
  Status ParseString(std::string* out) {
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          Status s = ParseHex4(&cp);
          if (!s.ok()) return s;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: the low half must follow as another \u.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            s = ParseHex4(&low);
            if (!s.ok()) return s;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail(std::string("unknown escape \\") + e);
      }
    }
  }

  Status ParseUint(uint64_t* out) {
    SkipWs();
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("expected an unsigned integer");
    }
    uint64_t v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      uint64_t d = static_cast<uint64_t>(text_[pos_] - '0');
      if (v > (UINT64_MAX - d) / 10) return Fail("integer overflow");
      v = v * 10 + d;
      ++pos_;
    }
    *out = v;
    return Status::Ok();
  }

  bool EatLiteral(const char* lit) {
    SkipWs();
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

 private:
  Status ParseHex4(uint32_t* out) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Fail("truncated \\u escape");
      char c = text_[pos_++];
      uint32_t d;
      if (c >= '0' && c <= '9') {
        d = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return Fail("bad \\u escape digit");
      }
      v = (v << 4) | d;
    }
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

inline Status ParseOp(const std::string& name, DaemonOp* out) {
  if (name == "SUBMIT") {
    *out = DaemonOp::kSubmit;
  } else if (name == "ADMIT") {
    *out = DaemonOp::kAdmit;
  } else if (name == "RETIRE") {
    *out = DaemonOp::kRetire;
  } else if (name == "STATS") {
    *out = DaemonOp::kStats;
  } else if (name == "SHUTDOWN") {
    *out = DaemonOp::kShutdown;
  } else {
    return Status::Error("protocol: unknown op '" + name +
                         "' (want SUBMIT, ADMIT, RETIRE, STATS, or "
                         "SHUTDOWN)");
  }
  return Status::Ok();
}

inline Result<DaemonRequest> ParseDaemonRequest(const std::string& line) {
  Scanner sc(line);
  if (!sc.Eat('{')) return sc.Fail("expected '{'");
  DaemonRequest req;
  bool has_op = false;
  bool has_doc = false;
  bool has_query = false;
  if (!sc.Eat('}')) {
    do {
      if (!sc.Eat('"')) return sc.Fail("expected a key string");
      std::string key;
      Status s = sc.ParseString(&key);
      if (!s.ok()) return s;
      if (!sc.Eat(':')) return sc.Fail("expected ':'");
      if (key == "op") {
        if (!sc.Eat('"')) return sc.Fail("op must be a string");
        std::string name;
        s = sc.ParseString(&name);
        if (!s.ok()) return s;
        s = ParseOp(name, &req.op);
        if (!s.ok()) return s;
        has_op = true;
      } else if (key == "doc") {
        if (!sc.Eat('"')) return sc.Fail("doc must be a string");
        s = sc.ParseString(&req.doc);
        if (!s.ok()) return s;
        has_doc = true;
      } else if (key == "format") {
        if (!sc.Eat('"')) return sc.Fail("format must be a string");
        std::string name;
        s = sc.ParseString(&name);
        if (!s.ok()) return s;
        if (!ParseInputFormat(name, &req.format)) {
          return Status::Error("protocol: unknown format '" + name +
                               "' (want xml, json, or trace)");
        }
        req.has_format = true;
      } else if (key == "label") {
        if (!sc.Eat('"')) return sc.Fail("label must be a string");
        s = sc.ParseString(&req.label);
        if (!s.ok()) return s;
      } else if (key == "query") {
        if (!sc.Eat('"')) return sc.Fail("query must be a string");
        s = sc.ParseString(&req.query);
        if (!s.ok()) return s;
        has_query = true;
      } else if (key == "qid") {
        s = sc.ParseUint(&req.qid);
        if (!s.ok()) return s;
        req.has_qid = true;
      } else {
        return Status::Error("protocol: unknown key '" + key + "'");
      }
    } while (sc.Eat(','));
    if (!sc.Eat('}')) return sc.Fail("expected ',' or '}'");
  }
  if (!sc.AtEnd()) return sc.Fail("trailing bytes after request object");
  if (!has_op) return Status::Error("protocol: request needs an op");
  switch (req.op) {
    case DaemonOp::kSubmit:
      if (!has_doc) return Status::Error("protocol: SUBMIT needs a doc");
      break;
    case DaemonOp::kAdmit:
      if (!has_query) {
        return Status::Error("protocol: ADMIT needs a query");
      }
      break;
    case DaemonOp::kRetire:
      if (!req.has_qid) {
        return Status::Error("protocol: RETIRE needs a qid");
      }
      break;
    case DaemonOp::kStats:
    case DaemonOp::kShutdown:
      break;
  }
  return req;
}

}  // namespace reference
}  // namespace nw

#endif  // NW_TESTS_REFERENCE_PROTOCOL_H_
