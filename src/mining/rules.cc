#include "mining/rules.h"

#include "mining/measures.h"
#include "util/run_context.h"

namespace maras::mining {

maras::StatusOr<RuleSpaceCount> CountAllPartitionRules(
    const FrequentItemsetResult& result, double min_confidence,
    const RunContext& ctx) {
  RuleSpaceCount count;
  for (const FrequentItemset& fi : result.itemsets()) {
    if (fi.items.size() < 2) continue;
    MARAS_RETURN_IF_ERROR_CTX(ctx.Check(), "rule-count");
    ++count.itemsets_considered;
    if (min_confidence <= 0.0) {
      // Every bipartition passes: 2^k − 2 rules.
      count.total_rules += (1ull << fi.items.size()) - 2;
      continue;
    }
    if (fi.items.size() > 20) continue;  // beyond the enumeration cap
    // Each proper, non-empty subset is the antecedent of one bipartition.
    ForEachProperSubset(fi.items, [&](const Itemset& a) {
      size_t supp_a = result.SupportOf(a);
      if (Confidence(fi.support, supp_a) >= min_confidence) {
        ++count.total_rules;
      }
    });
  }
  return count;
}

}  // namespace maras::mining
