#ifndef MARAS_UTIL_STRING_UTIL_H_
#define MARAS_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace maras {

// Splits `input` on `delim`, keeping empty fields (so the field count of a
// delimited record is stable even with trailing delimiters).
std::vector<std::string> Split(std::string_view input, char delim);

// Joins `parts` with `delim` between each element.
std::string Join(const std::vector<std::string>& parts, char delim);
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

// Returns `s` without leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// ASCII-only upper-casing (FAERS content is ASCII).
std::string ToUpperAscii(std::string_view s);

// Collapses runs of whitespace to a single space character.
std::string CollapseWhitespace(std::string_view s);

// Formats a double with `digits` places after the decimal point.
std::string FormatDouble(double value, int digits);

// Formats an integer with thousands separators, e.g. 126755 -> "126,755".
std::string FormatWithCommas(long long value);

// A std::string-keyed hash map that a std::string_view probe can search
// without building a temporary key (heterogeneous lookup).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringViewHash, std::equal_to<>>;

}  // namespace maras

#endif  // MARAS_UTIL_STRING_UTIL_H_
