#include "mining/itemset.h"

#include <algorithm>

#include "util/logging.h"

namespace maras::mining {

Itemset MakeItemset(std::vector<ItemId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool IsSubset(const Itemset& a, const Itemset& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

Itemset Union(const Itemset& a, const Itemset& b) {
  Itemset out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Itemset Intersect(const Itemset& a, const Itemset& b) {
  Itemset out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

bool Contains(const Itemset& a, ItemId item) {
  return std::binary_search(a.begin(), a.end(), item);
}

std::string ToString(const Itemset& s) {
  std::string out = "{";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(s[i]);
  }
  out += "}";
  return out;
}

}  // namespace maras::mining
