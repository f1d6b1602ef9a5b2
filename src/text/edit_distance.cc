#include "text/edit_distance.h"

#include <algorithm>
#include <vector>

namespace maras::text {

size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Three rolling rows: two-back (for transpositions), previous, current.
  std::vector<size_t> two_back(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], two_back[j - 2] + 1);
      }
    }
    std::swap(two_back, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

size_t BoundedDamerauLevenshtein(std::string_view a, std::string_view b,
                                 size_t max_distance) {
  // Quick length-difference bound.
  size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (diff > max_distance) return max_distance + 1;
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> two_back(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    size_t row_min = cur[0];
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], two_back[j - 2] + 1);
      }
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > max_distance) return max_distance + 1;  // early exit
    std::swap(two_back, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace maras::text
