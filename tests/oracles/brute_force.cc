#include "tests/oracles/brute_force.h"

#include <cstdint>

#include "util/logging.h"

namespace maras::mining {

FrequentItemsetResult BruteForceMine(const TransactionDatabase& db,
                                     const MiningOptions& options, int items) {
  MARAS_CHECK(items >= 0 && items <= 16) << "brute force is 2^items";
  FrequentItemsetResult result;
  for (uint32_t mask = 1; mask < (1u << items); ++mask) {
    Itemset candidate;
    for (int i = 0; i < items; ++i) {
      if (mask & (1u << i)) candidate.push_back(static_cast<ItemId>(i));
    }
    if (options.max_itemset_size != 0 &&
        candidate.size() > options.max_itemset_size) {
      continue;
    }
    const size_t support = db.Support(candidate);
    if (support >= options.min_support) result.Add(candidate, support);
  }
  result.SortCanonically();
  return result;
}

}  // namespace maras::mining
