// Symbol interning. All automata in the library operate on dense integer
// symbol ids; Alphabet maps them to human-readable names for parsing,
// printing, and diagnostics.
#ifndef NW_NW_ALPHABET_H_
#define NW_NW_ALPHABET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nw {

/// Dense id of a symbol in an Alphabet. Ids are assigned 0,1,2,... in
/// interning order.
using Symbol = uint32_t;

/// A finite alphabet Σ with named symbols.
///
/// The paper's constructions are parameterized by |Σ|; most examples use
/// Σ = {a, b}. Alphabets are value types and cheap to copy for the small
/// sizes used throughout. Lookups take any `std::string_view` (the
/// tokenizers pass views into the document) and never allocate; only
/// interning a new name does.
class Alphabet {
 public:
  Alphabet() = default;

  /// Builds an alphabet from a list of distinct names.
  explicit Alphabet(const std::vector<std::string>& names) {
    for (const auto& n : names) Intern(n);
  }

  /// Returns the id for `name`, interning it if new.
  Symbol Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    Symbol id = static_cast<Symbol>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id for `name` or `kNoSymbol` when absent.
  Symbol Find(std::string_view name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kNoSymbol : it->second;
  }

  /// Name of symbol `s`; `s` must be interned.
  const std::string& Name(Symbol s) const { return names_.at(s); }

  /// Number of symbols.
  size_t size() const { return names_.size(); }

  /// Sentinel for "no such symbol".
  static constexpr Symbol kNoSymbol = UINT32_MAX;

  /// Convenience: alphabet {"a","b"} used by most of the paper's examples.
  static Alphabet Ab() { return Alphabet({"a", "b"}); }

  /// Convenience: the first `n` lowercase letters (n <= 26).
  static Alphabet Letters(int n);

 private:
  /// Transparent hash: lets find() take a string_view without building
  /// a std::string key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, Symbol, NameHash, std::equal_to<>> ids_;
};

inline Alphabet Alphabet::Letters(int n) {
  Alphabet a;
  for (int i = 0; i < n; ++i) a.Intern(std::string(1, 'a' + i));
  return a;
}

}  // namespace nw

#endif  // NW_NW_ALPHABET_H_
