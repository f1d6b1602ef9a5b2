#include "core/drug_adr_rule.h"

#include "mining/measures.h"

namespace maras::core {

maras::StatusOr<DrugAdrRule> SplitByDomain(
    const mining::Itemset& itemset, const mining::ItemDictionary& items) {
  DrugAdrRule rule;
  for (mining::ItemId id : itemset) {
    if (items.Domain(id) == mining::ItemDomain::kDrug) {
      rule.drugs.push_back(id);
    } else {
      rule.adrs.push_back(id);
    }
  }
  if (rule.drugs.empty()) {
    return maras::Status::InvalidArgument("itemset has no drug items");
  }
  if (rule.adrs.empty()) {
    return maras::Status::InvalidArgument("itemset has no ADR items");
  }
  return rule;
}

void SetRuleMeasures(size_t num_reports, DrugAdrRule* rule) {
  rule->confidence =
      mining::Confidence(rule->support, rule->antecedent_support);
  rule->lift = mining::Lift(rule->support, rule->antecedent_support,
                            rule->consequent_support, num_reports);
}

std::string RuleToString(const DrugAdrRule& rule,
                         const mining::ItemDictionary& items) {
  return items.Render(rule.drugs) + " => " + items.Render(rule.adrs);
}

}  // namespace maras::core
