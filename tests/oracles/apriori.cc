#include "tests/oracles/apriori.h"

#include <algorithm>
#include <unordered_set>

namespace maras::mining {

namespace {

// Generates level-(k+1) candidates from sorted level-k frequent itemsets via
// the prefix self-join, then prunes candidates with an infrequent k-subset.
std::vector<Itemset> GenerateCandidates(
    const std::vector<Itemset>& level,
    const std::unordered_set<Itemset, ItemsetHash>& frequent) {
  std::vector<Itemset> candidates;
  for (size_t i = 0; i < level.size(); ++i) {
    for (size_t j = i + 1; j < level.size(); ++j) {
      const Itemset& a = level[i];
      const Itemset& b = level[j];
      // Join requires identical (k-1)-prefix; the level is sorted
      // lexicographically so joinable partners are contiguous.
      bool same_prefix =
          std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1);
      if (!same_prefix) break;
      Itemset candidate = a;
      candidate.push_back(b.back());
      if (candidate[candidate.size() - 2] > candidate.back()) {
        std::swap(candidate[candidate.size() - 2],
                  candidate[candidate.size() - 1]);
      }
      // Prune: every k-subset must be frequent.
      bool all_frequent = true;
      Itemset subset(candidate.begin(), candidate.end() - 1);
      for (size_t drop = candidate.size(); drop-- > 0 && all_frequent;) {
        subset.assign(candidate.begin(), candidate.end());
        subset.erase(subset.begin() + static_cast<long>(drop));
        if (frequent.count(subset) == 0) all_frequent = false;
      }
      if (all_frequent) candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

}  // namespace

maras::StatusOr<FrequentItemsetResult> Apriori::Mine(
    const TransactionDatabase& db) const {
  if (options_.min_support == 0) {
    return maras::Status::InvalidArgument("min_support must be >= 1");
  }
  FrequentItemsetResult result;

  // Level 1: frequent single items.
  std::vector<Itemset> level;
  {
    std::vector<ItemId> items;
    for (const Itemset& t : db.transactions()) {
      items.insert(items.end(), t.begin(), t.end());
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    for (ItemId item : items) {
      size_t sup = db.ItemSupport(item);
      if (sup >= options_.min_support) {
        Itemset s{item};
        result.Add(s, sup);
        level.push_back(std::move(s));
      }
    }
  }
  std::sort(level.begin(), level.end());

  std::unordered_set<Itemset, ItemsetHash> frequent(level.begin(),
                                                    level.end());
  size_t k = 1;
  while (!level.empty()) {
    ++k;
    if (options_.max_itemset_size != 0 && k > options_.max_itemset_size) {
      break;
    }
    std::vector<Itemset> candidates = GenerateCandidates(level, frequent);
    std::vector<Itemset> next;
    for (Itemset& candidate : candidates) {
      size_t sup = db.Support(candidate);
      if (sup >= options_.min_support) {
        result.Add(candidate, sup);
        frequent.insert(candidate);
        next.push_back(std::move(candidate));
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
  }
  result.SortCanonically();
  return result;
}

}  // namespace maras::mining
