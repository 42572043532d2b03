// Reference tokenizers: the byte-at-a-time scanners the three front ends
// (xml/xml.h, json/json.h, trace/trace.h) used before they scanned by
// runs. They test one byte at a time through std::isalnum/std::isspace,
// copy every name into a std::string and intern it. The byte loops are
// kept here as they were, minus the stats tallies and the cached
// pseudo-symbol ids, as the oracle the run-scanning streams are compared
// against (tests/stream_diff_test.cc): same kinds, same names, same
// pos() after every token.
#ifndef NW_TESTS_REFERENCE_TOKENIZERS_H_
#define NW_TESTS_REFERENCE_TOKENIZERS_H_

#include <cctype>
#include <string>
#include <vector>

#include "nw/alphabet.h"
#include "nw/nested_word.h"

namespace nw {
namespace reference {

class XmlTokenizer {
 public:
  XmlTokenizer(const std::string& text, Alphabet* alphabet)
      : text_(text), alphabet_(alphabet) {}

  bool Next(TaggedSymbol* out) {
    if (queued_return_ != Alphabet::kNoSymbol) {
      *out = Return(queued_return_);
      queued_return_ = Alphabet::kNoSymbol;
      return true;
    }
    const std::string& text = text_;
    auto read_name = [&](size_t* pos) {
      size_t start = *pos;
      while (*pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[*pos])) ||
              text[*pos] == '_' || text[*pos] == '-')) {
        ++*pos;
      }
      return text.substr(start, *pos - start);
    };
    while (pos_ < text.size()) {
      if (text[pos_] == '<') {
        if (pos_ + 1 < text.size() &&
            (text[pos_ + 1] == '!' || text[pos_ + 1] == '?')) {
          if (text.compare(pos_, 4, "<!--") == 0) {
            size_t end = text.find("-->", pos_ + 4);
            pos_ = end == std::string::npos ? text.size() : end + 3;
          } else if (text.compare(pos_, 9, "<![CDATA[") == 0) {
            size_t body = pos_ + 9;
            size_t end = text.find("]]>", body);
            size_t body_end = end == std::string::npos ? text.size() : end;
            pos_ = end == std::string::npos ? text.size() : end + 3;
            if (body_end > body) {
              if (text_sym_ == Alphabet::kNoSymbol) {
                text_sym_ = alphabet_->Intern("#text");
              }
              *out = Internal(text_sym_);
              return true;
            }
          } else {
            size_t j = pos_ + 2;
            int brackets = 0;
            while (j < text.size() && (text[j] != '>' || brackets > 0)) {
              brackets += text[j] == '[';
              brackets -= text[j] == ']';
              ++j;
            }
            pos_ = j < text.size() ? j + 1 : text.size();
          }
          continue;
        }
        if (pos_ + 1 < text.size() && text[pos_ + 1] == '/') {
          size_t j = pos_ + 2;
          std::string name = read_name(&j);
          while (j < text.size() && text[j] != '>') ++j;
          if (j < text.size()) ++j;
          pos_ = j;
          *out = Return(alphabet_->Intern(name));
          return true;
        }
        size_t j = pos_ + 1;
        std::string name = read_name(&j);
        bool self_closing = false;
        while (j < text.size() && text[j] != '>') {
          self_closing = text[j] == '/';
          ++j;
        }
        if (j < text.size()) ++j;
        pos_ = j;
        Symbol s = alphabet_->Intern(name);
        if (self_closing) queued_return_ = s;
        *out = Call(s);
        return true;
      }
      size_t j = pos_;
      bool nonspace = false;
      while (j < text.size() && text[j] != '<') {
        nonspace =
            nonspace || !std::isspace(static_cast<unsigned char>(text[j]));
        ++j;
      }
      pos_ = j;
      if (nonspace) {
        if (text_sym_ == Alphabet::kNoSymbol) {
          text_sym_ = alphabet_->Intern("#text");
        }
        *out = Internal(text_sym_);
        return true;
      }
    }
    return false;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  Alphabet* alphabet_;
  size_t pos_ = 0;
  Symbol text_sym_ = Alphabet::kNoSymbol;
  Symbol queued_return_ = Alphabet::kNoSymbol;
};

class JsonTokenizer {
 public:
  JsonTokenizer(const std::string& text, Alphabet* alphabet)
      : text_(text), alphabet_(alphabet) {}

  bool Next(TaggedSymbol* out) {
    if (queue_pos_ < queue_len_) {
      *out = queue_[queue_pos_++];
      return true;
    }
    const std::string& text = text_;
    while (pos_ < text.size()) {
      char c = text[pos_];
      if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
          c == ':') {
        ++pos_;
        continue;
      }
      if (c == '{' || c == '[') {
        ++pos_;
        Symbol s;
        if (pending_key_ != Alphabet::kNoSymbol) {
          s = pending_key_;
          pending_key_ = Alphabet::kNoSymbol;
        } else if (stack_.empty()) {
          stack_.push_back(Alphabet::kNoSymbol);
          continue;
        } else {
          s = alphabet_->Intern(c == '{' ? "#obj" : "#arr");
        }
        stack_.push_back(s);
        *out = Call(s);
        return true;
      }
      if (c == '}' || c == ']') {
        ++pos_;
        pending_key_ = Alphabet::kNoSymbol;
        if (stack_.empty()) continue;
        Symbol s = stack_.back();
        stack_.pop_back();
        if (s == Alphabet::kNoSymbol) continue;
        *out = Return(s);
        return true;
      }
      if (c == '"') {
        size_t j = pos_ + 1;
        std::string contents;
        while (j < text.size() && text[j] != '"') {
          if (text[j] == '\\' && j + 1 < text.size()) {
            contents += text[j];
            ++j;
          }
          contents += text[j];
          ++j;
        }
        pos_ = j < text.size() ? j + 1 : text.size();
        size_t k = pos_;
        while (k < text.size() &&
               std::isspace(static_cast<unsigned char>(text[k]))) {
          ++k;
        }
        if (k < text.size() && text[k] == ':') {
          pos_ = k + 1;
          pending_key_ = alphabet_->Intern(contents);
          continue;
        }
        return EmitScalar(out);
      }
      size_t j = pos_;
      while (j < text.size() && !IsStructural(text[j]) &&
             !std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      pos_ = j;
      return EmitScalar(out);
    }
    return false;
  }

  size_t pos() const { return pos_; }

 private:
  static bool IsStructural(char c) {
    return c == '{' || c == '}' || c == '[' || c == ']' || c == ',' ||
           c == ':' || c == '"';
  }

  bool EmitScalar(TaggedSymbol* out) {
    Symbol text_sym = alphabet_->Intern("#text");
    if (pending_key_ != Alphabet::kNoSymbol) {
      Symbol k = pending_key_;
      pending_key_ = Alphabet::kNoSymbol;
      queue_[0] = Internal(text_sym);
      queue_[1] = Return(k);
      queue_len_ = 2;
      queue_pos_ = 0;
      *out = Call(k);
      return true;
    }
    *out = Internal(text_sym);
    return true;
  }

  const std::string& text_;
  Alphabet* alphabet_;
  size_t pos_ = 0;
  Symbol pending_key_ = Alphabet::kNoSymbol;
  std::vector<Symbol> stack_;
  TaggedSymbol queue_[2];
  size_t queue_len_ = 0, queue_pos_ = 0;
};

class TraceTokenizer {
 public:
  TraceTokenizer(const std::string& text, Alphabet* alphabet)
      : text_(text), alphabet_(alphabet) {}

  bool Next(TaggedSymbol* out) {
    if (queued_return_ != Alphabet::kNoSymbol) {
      *out = Return(queued_return_);
      queued_return_ = Alphabet::kNoSymbol;
      return true;
    }
    const std::string& text = text_;
    while (pos_ < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text.size()) return false;
    size_t start = pos_;
    while (pos_ < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos_]))) {
      ++pos_;
    }
    size_t len = pos_ - start;
    bool call = text[start] == '<';
    bool ret = text[pos_ - 1] == '>';
    if (call && ret && len > 2) {
      Symbol s = alphabet_->Intern(text.substr(start + 1, len - 2));
      queued_return_ = s;
      *out = Call(s);
      return true;
    }
    if (call && len > 1) {
      *out = Call(alphabet_->Intern(text.substr(start + 1, len - 1)));
      return true;
    }
    if (ret && len > 1) {
      *out = Return(alphabet_->Intern(text.substr(start, len - 1)));
      return true;
    }
    if (call || ret) {
      *out = Internal(alphabet_->Intern("#text"));
      return true;
    }
    *out = Internal(alphabet_->Intern(text.substr(start, len)));
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  Alphabet* alphabet_;
  size_t pos_ = 0;
  Symbol queued_return_ = Alphabet::kNoSymbol;
};

}  // namespace reference
}  // namespace nw

#endif  // NW_TESTS_REFERENCE_TOKENIZERS_H_
