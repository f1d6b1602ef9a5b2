#include "text/dictionary.h"

#include <bit>

#include "text/edit_distance.h"

namespace maras::text {

namespace {

// Set of the characters of `term`, each byte folded onto one of 64 bits.
uint64_t CharMask(std::string_view term) {
  uint64_t mask = 0;
  for (char c : term) {
    mask |= uint64_t{1} << (static_cast<unsigned char>(c) & 63);
  }
  return mask;
}

}  // namespace

void Dictionary::AddCanonical(std::string_view term) {
  if (index_.find(term) != index_.end()) return;
  index_.emplace(term, canonical_.size());
  by_length_[term.size()].push_back(canonical_.size());
  char_masks_.push_back(CharMask(term));
  canonical_.emplace_back(term);
}

maras::Status Dictionary::AddAlias(std::string_view alias,
                                   std::string_view canonical) {
  if (alias == canonical) {
    return maras::Status::InvalidArgument("alias equals canonical: " +
                                          std::string(alias));
  }
  AddCanonical(canonical);
  if (auto it = aliases_.find(alias); it != aliases_.end()) {
    it->second = canonical;
  } else {
    aliases_.emplace(alias, canonical);
  }
  return maras::Status::OK();
}

Dictionary::Match Dictionary::Resolve(std::string_view term,
                                      size_t max_edit_distance) const {
  Match match;
  if (auto it = index_.find(term); it != index_.end()) {
    match.canonical = canonical_[it->second];
    match.kind = MatchKind::kExact;
    return match;
  }
  if (auto it = aliases_.find(term); it != aliases_.end()) {
    match.canonical = it->second;
    match.kind = MatchKind::kAlias;
    return match;
  }
  if (max_edit_distance == 0) return match;

  size_t best_distance = max_edit_distance + 1;
  const std::string* best_term = nullptr;
  const uint64_t query_mask = CharMask(term);
  const auto beyond_bound = [&](uint64_t missing) {
    return static_cast<size_t>(std::popcount(missing)) > max_edit_distance;
  };
  const size_t len = term.size();
  const size_t lo = len > max_edit_distance ? len - max_edit_distance : 0;
  const size_t hi = len + max_edit_distance;
  for (size_t bucket = lo; bucket <= hi; ++bucket) {
    auto it = by_length_.find(bucket);
    if (it == by_length_.end()) continue;
    for (size_t idx : it->second) {
      const uint64_t mask = char_masks_[idx];
      if (beyond_bound(query_mask & ~mask) ||
          beyond_bound(mask & ~query_mask)) {
        continue;
      }
      const std::string& candidate = canonical_[idx];
      size_t d =
          BoundedDamerauLevenshtein(term, candidate, max_edit_distance);
      if (d < best_distance ||
          (d == best_distance && best_term != nullptr &&
           candidate < *best_term)) {
        best_distance = d;
        best_term = &candidate;
      }
    }
  }
  if (best_term != nullptr && best_distance <= max_edit_distance) {
    match.canonical = *best_term;
    match.kind = MatchKind::kFuzzy;
    match.distance = best_distance;
  }
  return match;
}

}  // namespace maras::text
