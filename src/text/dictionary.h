#ifndef MARAS_TEXT_DICTIONARY_H_
#define MARAS_TEXT_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace maras::text {

// A vocabulary of canonical names plus synonym and fuzzy lookup, used to map
// raw FAERS drug/ADR strings onto canonical terms. Corrects:
//   * synonyms (brand name -> canonical generic), via an explicit alias map;
//   * misspellings, via bounded Damerau–Levenshtein search over the
//     vocabulary. The scan only visits terms whose length is within the
//     bound, and skips, before any distance is computed, every term whose
//     character set (bytes folded into a 64-bit mask) differs from the
//     query's by more than the bound. That filter is exact: each character
//     class one string has and the other lacks costs at least one edit (a
//     transposition keeps the characters), so only terms that could not
//     match are skipped.
class Dictionary {
 public:
  Dictionary() = default;

  // Registers a canonical term. Idempotent.
  void AddCanonical(std::string_view term);

  // Registers `alias` as a synonym of `canonical`; the canonical term is
  // added implicitly. Returns InvalidArgument when alias == canonical.
  maras::Status AddAlias(std::string_view alias, std::string_view canonical);

  size_t size() const { return canonical_.size(); }

  const std::vector<std::string>& canonical_terms() const {
    return canonical_;
  }

  // Resolution result with provenance, so preprocessing can report how many
  // names were corrected vs. passed through.
  enum class MatchKind { kExact, kAlias, kFuzzy, kNone };
  struct Match {
    std::string canonical;
    MatchKind kind = MatchKind::kNone;
    size_t distance = 0;  // edit distance for kFuzzy, 0 otherwise
  };

  // Resolves `term`: exact hit, then alias, then the nearest vocabulary
  // entry within `max_edit_distance` (ties broken toward the
  // lexicographically smaller term for determinism). kNone when nothing is
  // within range.
  Match Resolve(std::string_view term, size_t max_edit_distance) const;

 private:
  std::vector<std::string> canonical_;
  std::vector<uint64_t> char_masks_;  // CharMask of canonical_[i]
  maras::StringMap<size_t> index_;  // canonical -> position
  maras::StringMap<std::string> aliases_;
  // Length bucket -> canonical indices, to bound the fuzzy scan.
  std::unordered_map<size_t, std::vector<size_t>> by_length_;
};

}  // namespace maras::text

#endif  // MARAS_TEXT_DICTIONARY_H_
