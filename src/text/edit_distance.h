#ifndef MARAS_TEXT_EDIT_DISTANCE_H_
#define MARAS_TEXT_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace maras::text {

// Damerau–Levenshtein distance (insert/delete/substitute plus adjacent
// transposition, unit costs), the classic model for typing errors in
// drug-name data entry.
size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b);

// Damerau–Levenshtein with early exit: returns any value > max_distance as
// soon as the distance provably exceeds max_distance. Used by the dictionary
// corrector, where most candidates are far away.
size_t BoundedDamerauLevenshtein(std::string_view a, std::string_view b,
                                 size_t max_distance);

}  // namespace maras::text

#endif  // MARAS_TEXT_EDIT_DISTANCE_H_
