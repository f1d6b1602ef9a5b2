#include "tests/oracles/partition_rules.h"

#include <algorithm>
#include <iterator>

#include "mining/measures.h"

namespace maras::mining {

std::vector<AssociationRule> GenerateAllPartitionRules(
    const FrequentItemsetResult& result, double min_confidence, size_t n,
    size_t max_rules) {
  std::vector<AssociationRule> rules;
  for (const FrequentItemset& fi : result.itemsets()) {
    if (fi.items.size() < 2 || fi.items.size() > 20) continue;
    if (rules.size() >= max_rules) break;
    // Every proper, non-empty subset is an antecedent; its complement in
    // the itemset is the consequent.
    ForEachProperSubset(fi.items, [&](const Itemset& a) {
      if (rules.size() >= max_rules) return;
      Itemset b;
      std::set_difference(fi.items.begin(), fi.items.end(), a.begin(),
                          a.end(), std::back_inserter(b));
      const size_t supp_a = result.SupportOf(a);
      const size_t supp_b = result.SupportOf(b);
      const double conf = Confidence(fi.support, supp_a);
      if (conf < min_confidence) return;
      AssociationRule rule;
      rule.antecedent = a;
      rule.consequent = std::move(b);
      rule.support = fi.support;
      rule.antecedent_support = supp_a;
      rule.consequent_support = supp_b;
      rule.confidence = conf;
      rule.lift = Lift(fi.support, supp_a, supp_b, n);
      rules.push_back(std::move(rule));
    });
  }
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.antecedent != b.antecedent) {
                return a.antecedent < b.antecedent;
              }
              if (a.consequent != b.consequent) {
                return a.consequent < b.consequent;
              }
              return a.support < b.support;
            });
  return rules;
}

}  // namespace maras::mining
