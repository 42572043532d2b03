#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "opt/pipeline.h"
#include "query/nwquery.h"
#include "support/check.h"

namespace nwbench {

namespace {

using nw::InputFormat;
using nw::Rng;

const char* const kKeywords[] = {"and", "or", "not", "then", "depth",
                                 "balanced"};
const char* const kAttrNames[] = {"id", "class", "lang", "ref", "type",
                                  "href", "version"};
const char* const kWords[] = {"lorem", "ipsum dolor", "sit amet 42",
                              "consectetur", "adipiscing elit", "1984",
                              "sed do eiusmod", "tempor"};
/// Trace internal events carry their own symbols (trace/trace.h).
const char* const kEvents[] = {"read", "write", "alloc", "free", "lock",
                               "unlock", "send", "recv"};

/// Lengths 4-24 are fixed per rank, so bytes per position do not vary
/// from seed to seed; only the letters are drawn.
std::string RandomName(Rng* rng, size_t rank) {
  const size_t len = 4 + (rank * 13) % 21;
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    bool sep = i > 0 && i + 1 < len && s.back() != '-' && s.back() != '_' &&
               rng->Chance(1, 9);
    if (sep) {
      s += rng->Chance(1, 2) ? '-' : '_';
    } else {
      s += static_cast<char>('a' + rng->Below(26));
    }
  }
  return s;
}

std::string RandomToken(Rng* rng, size_t lo, size_t hi) {
  size_t len = lo + rng->Below(hi - lo + 1);
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->Below(26));
  }
  return s;
}

/// Appends one document in one concrete syntax. Every Open/Text/Close
/// call consumes the same Rng draws whatever the format, so a tree is a
/// function of the Rng state alone.
class DocWriter {
 public:
  explicit DocWriter(InputFormat format) : format_(format) {
    if (format_ == InputFormat::kJson) out_ += "{";
    first_.push_back(true);
  }

  void Open(const std::string& name, Rng* rng) {
    // Attribute and comment draws happen in every format.
    size_t attrs = rng->Below(4);
    std::string attr_text;
    for (size_t i = 0; i < attrs; ++i) {
      attr_text += " ";
      attr_text += kAttrNames[rng->Below(std::size(kAttrNames))];
      attr_text += "=\"" + RandomToken(rng, 3, 12) + "\"";
    }
    bool comment = rng->Chance(1, 40);
    switch (format_) {
      case InputFormat::kXml:
        if (comment) out_ += "<!-- note " + name + " -->";
        out_ += "<" + name + attr_text + ">";
        break;
      case InputFormat::kJson:
        Member();
        out_ += "\"" + name + "\":";
        break;
      case InputFormat::kTrace:
        Sep();
        out_ += "<" + name;
        break;
    }
    first_.push_back(true);
  }

  /// Marks the element just opened as having children (JSON needs the
  /// object brace before the first child).
  void BeginChildren() {
    if (format_ == InputFormat::kJson) out_ += "{";
  }

  void Text(Rng* rng) {
    size_t w = rng->Below(std::size(kWords));
    switch (format_) {
      case InputFormat::kXml:
        out_ += kWords[w];
        break;
      case InputFormat::kJson:
        out_ += "\"";
        out_ += kWords[w];
        out_ += "\"";
        break;
      case InputFormat::kTrace:
        Sep();
        out_ += kEvents[w % std::size(kEvents)];
        break;
    }
  }

  /// `kind`: 0 = had children, 1 = had text, 2 = empty.
  void Close(const std::string& name, int kind) {
    first_.pop_back();
    switch (format_) {
      case InputFormat::kXml:
        out_ += "</" + name + ">";
        break;
      case InputFormat::kJson:
        if (kind == 0) out_ += "}";
        if (kind == 2) out_ += "{}";
        break;
      case InputFormat::kTrace:
        Sep();
        out_ += name + ">";
        break;
    }
  }

  std::string Finish() {
    if (format_ == InputFormat::kJson) out_ += "}";
    return std::move(out_);
  }

 private:
  void Member() {
    if (!first_.back()) out_ += ",";
    first_.back() = false;
  }
  void Sep() {
    if (!out_.empty()) out_ += " ";
  }

  InputFormat format_;
  std::string out_;
  std::vector<bool> first_;
};

void GenElement(Rng* rng, const Vocabulary& vocab, size_t depth,
                size_t max_depth, size_t* budget, DocWriter* w) {
  const std::string& name = vocab.name(vocab.Draw(rng));
  *budget -= std::min<size_t>(*budget, 2);
  w->Open(name, rng);
  uint64_t pick = rng->Below(4);
  if (pick == 0 || depth + 1 >= max_depth || *budget == 0) {
    if (pick == 1) {
      w->Close(name, 2);
    } else {
      w->Text(rng);
      *budget -= std::min<size_t>(*budget, 1);
      w->Close(name, 1);
    }
    return;
  }
  w->BeginChildren();
  size_t kids = 1 + rng->Below(4);
  for (size_t i = 0; i < kids && *budget > 0; ++i) {
    GenElement(rng, vocab, depth + 1, max_depth, budget, w);
  }
  w->Close(name, 0);
}

}  // namespace

Vocabulary::Vocabulary(uint64_t seed, size_t size) {
  Rng rng(seed ^ 0x766f636162756c61ULL);
  std::set<std::string> seen(std::begin(kKeywords), std::end(kKeywords));
  while (names_.size() < size) {
    std::string n = RandomName(&rng, names_.size());
    if (seen.insert(n).second) names_.push_back(std::move(n));
  }
  double total = 0;
  for (size_t r = 0; r < size; ++r) total += 1.0 / static_cast<double>(r + 1);
  double acc = 0;
  for (size_t r = 0; r < size; ++r) {
    acc += 1.0 / static_cast<double>(r + 1) / total;
    cdf_.push_back(acc);
  }
  cdf_.back() = 1.0;
}

size_t Vocabulary::Draw(Rng* rng) const {
  double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
  return static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::vector<std::string> Vocabulary::BankNames() const {
  std::vector<std::string> out;
  for (size_t rank : {1, 2, 4, 7, 12, 20, 33, 54}) out.push_back(names_[rank]);
  return out;
}

Doc GenerateDoc(Rng* rng, const Vocabulary& vocab, size_t positions,
                size_t max_depth, InputFormat format) {
  DocWriter w(format);
  size_t budget = positions;
  while (budget > 0) GenElement(rng, vocab, 0, max_depth, &budget, &w);
  return Doc{w.Finish(), format};
}

std::vector<std::string> BankQueries(const std::vector<std::string>& names,
                                     size_t k) {
  const size_t n = names.size();
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < k; ++i) {
    const std::string& x = names[i % n];
    const std::string& y = names[(i + 1 + i / n) % n];
    switch (i % 8) {
      case 0: out.push_back("/" + x); break;
      case 1: out.push_back("//" + y); break;
      case 2: out.push_back("/" + x + "/" + y); break;
      case 3: out.push_back("/" + x + "//" + y); break;
      case 4: out.push_back(x + " then " + y); break;
      case 5: out.push_back("depth >= " + std::to_string(2 + i % 5)); break;
      case 6: out.push_back("//" + x + "/*/" + y); break;
      default: out.push_back("not //" + x); break;
    }
  }
  return out;
}

std::vector<std::string> AdmissionPool(const std::vector<std::string>& names,
                                       size_t n) {
  Rng fixed(0x706f6f6c);
  Rng* rng = &fixed;
  // Inside a boolean, atoms are plain child/descendant paths: a mid-path
  // `//` or a wildcard under `and` makes one admission's compile cost and
  // memory ten times the others', and the run's figures then depend on
  // whether the seed drew one.
  auto atom = [&](bool in_boolean) {
    const std::string& x = names[rng->Below(names.size())];
    const std::string& y = names[rng->Below(names.size())];
    switch (rng->Below(in_boolean ? 4 : 6)) {
      case 0: return "/" + x;
      case 1: return "//" + x;
      case 2: return "/" + x + "/" + y;
      case 3: return "//" + x + "/" + y;
      case 4: return "/" + x + "//" + y;
      default: return "//" + x + "/*/" + y;
    }
  };
  std::vector<std::string> out;
  while (out.size() < n) {
    // Shapes rotate in a fixed order and only the atoms are drawn, from a
    // fixed Rng, so every run admits the same mix of formulas.
    const size_t shape = out.size() % 7;
    if (shape == 0) {
      out.push_back(atom(false));
      continue;
    }
    if (shape == 1) {
      out.push_back("not " + atom(false));
      continue;
    }
    std::string a = atom(true);
    std::string b = atom(true);
    switch (shape) {
      case 2: out.push_back(a + " and " + b); break;
      case 3: out.push_back(a + " or " + b); break;
      case 4: out.push_back(a + " and not " + b); break;
      case 5: out.push_back(a + " or " + b + " or " + atom(true)); break;
      default: out.push_back("(" + a + " or " + b + ") and " + atom(true));
    }
  }
  return out;
}

std::unique_ptr<CompiledBank> CompileBank(
    const std::vector<std::string>& texts) {
  auto c = std::make_unique<CompiledBank>();
  for (const std::string& t : texts) {
    c->queries.push_back(nw::ParseQuery(t, &c->alphabet).Take());
  }
  c->alphabet.Intern("#text");
  c->other = c->alphabet.Intern("%other");
  c->bank = nw::OptimizeBank(c->queries, c->alphabet.size(),
                             nw::OptOptions::All());
  return c;
}

Oracle::Oracle(const std::vector<std::string>& base_queries) {
  for (const std::string& text : base_queries) {
    NW_CHECK_MSG(nw::ParseQuery(text, &alphabet_).ok(), "bad query %s",
                 text.c_str());
  }
  alphabet_.Intern("#text");
  other_ = alphabet_.Intern("%other");
  num_symbols_ = alphabet_.size();
}

const nw::Nwa* Oracle::Prepare(const std::string& text) {
  auto it = compiled_.find(text);
  if (it != compiled_.end()) return it->second.get();
  nw::Result<nw::Query> q = nw::ParseQuery(text, &alphabet_);
  NW_CHECK_MSG(q.ok() && alphabet_.size() == num_symbols_,
               "oracle query '%s' must use only the base bank's names",
               text.c_str());
  auto nwa = std::make_unique<nw::Nwa>(
      nw::CompileOptimized(*q, num_symbols_, nw::OptOptions::All()).nwa);
  return compiled_.emplace(text, std::move(nwa)).first->second.get();
}

nw::DocResult Oracle::Eval(const std::vector<std::string>& queries,
                           const Doc& doc) {
  nw::QueryEngine engine(num_symbols_);
  engine.set_other_symbol(other_);
  engine.set_track_matches(true);
  for (const std::string& q : queries) engine.Add(Prepare(q));
  nw::Alphabet local = alphabet_;
  nw::DocResult out;
  out.accept = engine.RunAll(doc.text, &local, doc.format);
  out.positions = engine.positions();
  out.first_match.resize(engine.num_queries());
  for (size_t q = 0; q < engine.num_queries(); ++q) {
    out.first_match[q] = engine.first_match(q);
  }
  return out;
}

std::string CompareResult(const nw::DocResult& want,
                          const nw::DocResult& got) {
  if (want.accept.size() != got.accept.size()) return "result width differs";
  if (want.positions != got.positions) return "position count differs";
  for (size_t q = 0; q < want.accept.size(); ++q) {
    if (want.accept[q] != got.accept[q]) {
      return "accept bit of query " + std::to_string(q) + " differs";
    }
    if (want.accept[q] && (q >= got.first_match.size() ||
                           want.first_match[q] != got.first_match[q])) {
      return "first match of query " + std::to_string(q) + " differs";
    }
  }
  return "";
}

std::string JsonQuote(const std::string& text) {
  static const char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace nwbench
