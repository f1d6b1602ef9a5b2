#ifndef MARAS_MINING_ITEMSET_H_
#define MARAS_MINING_ITEMSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"

namespace maras::mining {

// Dense identifier for an interned item (drug or ADR name).
using ItemId = uint32_t;

// An itemset is a strictly increasing vector of ItemIds. All functions below
// require (and preserve) that invariant.
using Itemset = std::vector<ItemId>;

// Returns a sorted, de-duplicated itemset built from arbitrary ids.
Itemset MakeItemset(std::vector<ItemId> ids);

// True when `a` ⊆ `b`. Both must be sorted.
bool IsSubset(const Itemset& a, const Itemset& b);

// Set union / intersection of sorted itemsets.
Itemset Union(const Itemset& a, const Itemset& b);
Itemset Intersect(const Itemset& a, const Itemset& b);

// True when sorted `a` contains `item`.
bool Contains(const Itemset& a, ItemId item);

// Enumerates every proper, non-empty subset of `s` (2^|s| − 2 of them) and
// invokes `fn(const Itemset&)` on each. |s| must be <= 20 to keep
// enumeration sane. A template on the callable (not std::function) so the
// per-subset call inlines, and one scratch buffer serves every subset — the
// enumeration itself allocates at most once.
template <typename Fn>
void ForEachProperSubset(const Itemset& s, Fn&& fn) {
  MARAS_CHECK(s.size() <= 20) << "subset enumeration limited to 20 items";
  const uint32_t n = static_cast<uint32_t>(s.size());
  const uint32_t full = (n >= 1) ? ((1u << n) - 1) : 0;
  Itemset subset;
  subset.reserve(s.size());
  for (uint32_t mask = 1; mask < full; ++mask) {
    subset.clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(s[i]);
    }
    fn(subset);
  }
}

// FNV-1a hash over the id sequence, usable as an unordered_map key hasher.
struct ItemsetHash {
  size_t operator()(const Itemset& s) const {
    uint64_t h = 1469598103934665603ULL;
    for (ItemId id : s) {
      h ^= id;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Debug rendering, e.g. "{1, 5, 9}".
std::string ToString(const Itemset& s);

}  // namespace maras::mining

#endif  // MARAS_MINING_ITEMSET_H_
