#ifndef MARAS_MINING_PROFILE_H_
#define MARAS_MINING_PROFILE_H_

#include <cstddef>

#include "mining/transaction_db.h"

namespace maras::mining {

// Shape profile of a transaction database — the numbers that predict mining
// cost (density drives FP-tree sharing; heavy-tailed item frequencies favor
// vertical miners) and that benches print so runs are comparable.
struct DatabaseProfile {
  size_t transactions = 0;
  size_t distinct_items = 0;
  size_t total_item_occurrences = 0;
  double mean_transaction_length = 0.0;
  size_t max_transaction_length = 0;
  // Occurrences / (transactions × distinct items) ∈ [0, 1].
  double density = 0.0;
  // Support of the most frequent item / transactions.
  double top_item_frequency = 0.0;
  // Share of total occurrences carried by the 1% most frequent items —
  // a heavy-tail indicator (≈0.01 for uniform data, ≫0.01 for Zipf).
  double top_percentile_occurrence_share = 0.0;
};

DatabaseProfile ProfileDatabase(const TransactionDatabase& db);

}  // namespace maras::mining

#endif  // MARAS_MINING_PROFILE_H_
