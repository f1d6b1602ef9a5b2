#include "mining/profile.h"

#include <algorithm>
#include <vector>

namespace maras::mining {

DatabaseProfile ProfileDatabase(const TransactionDatabase& db) {
  DatabaseProfile profile;
  profile.transactions = db.size();
  if (db.empty()) return profile;

  std::vector<size_t> item_supports;
  {
    // Collect per-item supports via the vertical index.
    std::vector<ItemId> items;
    for (const Itemset& t : db.transactions()) {
      profile.total_item_occurrences += t.size();
      profile.max_transaction_length =
          std::max(profile.max_transaction_length, t.size());
      items.insert(items.end(), t.begin(), t.end());
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    profile.distinct_items = items.size();
    item_supports.reserve(items.size());
    for (ItemId item : items) item_supports.push_back(db.ItemSupport(item));
  }

  profile.mean_transaction_length =
      static_cast<double>(profile.total_item_occurrences) /
      static_cast<double>(profile.transactions);
  profile.density = static_cast<double>(profile.total_item_occurrences) /
                    (static_cast<double>(profile.transactions) *
                     static_cast<double>(profile.distinct_items));

  std::sort(item_supports.begin(), item_supports.end(),
            std::greater<size_t>());
  profile.top_item_frequency =
      static_cast<double>(item_supports.front()) /
      static_cast<double>(profile.transactions);
  size_t head = std::max<size_t>(1, item_supports.size() / 100);
  size_t head_occurrences = 0;
  for (size_t i = 0; i < head; ++i) head_occurrences += item_supports[i];
  profile.top_percentile_occurrence_share =
      static_cast<double>(head_occurrences) /
      static_cast<double>(profile.total_item_occurrences);
  return profile;
}

}  // namespace maras::mining
