#include "tests/oracles/rules_database.h"

#include <utility>

#include "mining/closed_itemsets.h"
#include "mining/measures.h"

namespace maras::core {

maras::StatusOr<DrugAdrRule> BuildRule(const mining::Itemset& itemset,
                                       const mining::ItemDictionary& items,
                                       const mining::TransactionDatabase& db) {
  MARAS_ASSIGN_OR_RETURN(DrugAdrRule rule, SplitByDomain(itemset, items));
  rule.support = db.Support(itemset);
  rule.antecedent_support = db.Support(rule.drugs);
  rule.consequent_support = db.Support(rule.adrs);
  rule.confidence = mining::Confidence(rule.support, rule.antecedent_support);
  rule.lift = mining::Lift(rule.support, rule.antecedent_support,
                           rule.consequent_support, db.size());
  return rule;
}

maras::StatusOr<std::vector<DrugAdrRule>> DatabaseRules(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer) {
  std::vector<DrugAdrRule> rules;
  for (const mining::FrequentItemset& fi : closed.itemsets()) {
    size_t drugs = 0;
    for (mining::ItemId id : fi.items) {
      if (items.Domain(id) == mining::ItemDomain::kDrug) ++drugs;
    }
    const size_t adrs = fi.items.size() - drugs;
    if (drugs < 2 || adrs < 1 || drugs > analyzer.max_drugs_per_rule) {
      continue;
    }
    if (!mining::IsClosedInDatabase(db, fi.items)) continue;
    MARAS_ASSIGN_OR_RETURN(DrugAdrRule rule, BuildRule(fi.items, items, db));
    if (rule.confidence >= analyzer.min_confidence) {
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

}  // namespace maras::core
