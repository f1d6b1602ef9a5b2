#ifndef MARAS_MINING_RULES_H_
#define MARAS_MINING_RULES_H_

#include <cstdint>
#include <vector>

#include "mining/frequent_itemsets.h"
#include "mining/itemset.h"
#include "util/statusor.h"

namespace maras::mining {

// Statistics over the traditional (unconstrained) rule space. "Total rules"
// in the paper's Fig. 5.1 is the number of rules A ⇒ B with A ∪ B ranging
// over every frequent itemset and (A, B) over every non-trivial bipartition
// — 2^|S| − 2 per itemset S — subject to a minimum confidence. Counting
// materializes nothing; subset supports come from the mined result (every
// subset of a frequent itemset is frequent, hence present).
struct RuleSpaceCount {
  uint64_t total_rules = 0;          // all bipartition rules passing min_conf
  uint64_t itemsets_considered = 0;  // itemsets of size >= 2
};

// Polls `ctx` once per itemset considered (each itemset's bipartition scan is
// bounded by the k <= 20 cap), so counting over a pathologically large rule
// space stops with the context's status, wrapped "rule-count", instead of
// running away.
maras::StatusOr<RuleSpaceCount> CountAllPartitionRules(
    const FrequentItemsetResult& result, double min_confidence,
    const RunContext& ctx);

}  // namespace maras::mining

#endif  // MARAS_MINING_RULES_H_
