#ifndef MARAS_TESTS_ORACLES_BRUTE_FORCE_H_
#define MARAS_TESTS_ORACLES_BRUTE_FORCE_H_

#include "mining/frequent_itemsets.h"
#include "mining/transaction_db.h"

namespace maras::mining {

// Ground truth by exhaustion: enumerates every non-empty subset of the item
// universe {0, ..., items - 1} and counts its support directly against the
// database, honouring min_support and max_itemset_size. Exponential in
// `items` (at most 16), so it is only usable for small universes — which is
// exactly why it is trustworthy as an oracle. The result is canonically
// sorted, so it compares byte for byte with any miner's output.
FrequentItemsetResult BruteForceMine(const TransactionDatabase& db,
                                     const MiningOptions& options, int items);

}  // namespace maras::mining

#endif  // MARAS_TESTS_ORACLES_BRUTE_FORCE_H_
