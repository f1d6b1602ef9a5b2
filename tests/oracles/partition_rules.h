#ifndef MARAS_TESTS_ORACLES_PARTITION_RULES_H_
#define MARAS_TESTS_ORACLES_PARTITION_RULES_H_

#include <cstddef>
#include <vector>

#include "mining/frequent_itemsets.h"
#include "mining/itemset.h"

namespace maras::mining {

// A generic association rule R ≡ A ⇒ B (Definition 2.1.1) with its
// evaluation counts. Support follows the paper's absolute-count convention.
struct AssociationRule {
  Itemset antecedent;
  Itemset consequent;
  size_t support = 0;             // supp(A ∪ B)
  size_t antecedent_support = 0;  // supp(A)
  size_t consequent_support = 0;  // supp(B)
  double confidence = 0.0;
  double lift = 0.0;
};

// Materializes every bipartition rule passing `min_confidence`, up to
// `max_rules`: the reference for CountAllPartitionRules, which counts the
// same rule space without materializing it. `n` is the transaction count,
// used for lift. Which rules make it under the cap follows the canonical
// itemset order of `result`; the returned rules are sorted by antecedent,
// then consequent, then support.
std::vector<AssociationRule> GenerateAllPartitionRules(
    const FrequentItemsetResult& result, double min_confidence, size_t n,
    size_t max_rules);

}  // namespace maras::mining

#endif  // MARAS_TESTS_ORACLES_PARTITION_RULES_H_
