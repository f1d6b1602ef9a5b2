#ifndef MARAS_TESTS_ORACLES_APRIORI_H_
#define MARAS_TESTS_ORACLES_APRIORI_H_

#include "mining/frequent_itemsets.h"
#include "mining/transaction_db.h"
#include "util/statusor.h"

namespace maras::mining {

// Classic level-wise Apriori (Agrawal & Srikant) frequent-itemset miner.
// A test-only oracle: it shares no code with FP-Growth, so the mining tests
// and `bench_mining --smoke` use it as an independent cross-check. Candidate
// generation is the standard F_{k-1} × F_{k-1} self-join with prefix
// sharing, followed by the all-subsets-frequent prune; support counting
// intersects tid lists. Serial and ungoverned: num_threads and context are
// ignored.
class Apriori {
 public:
  explicit Apriori(MiningOptions options) : options_(options) {}

  maras::StatusOr<FrequentItemsetResult> Mine(
      const TransactionDatabase& db) const;

 private:
  MiningOptions options_;
};

}  // namespace maras::mining

#endif  // MARAS_TESTS_ORACLES_APRIORI_H_
