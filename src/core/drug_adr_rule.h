#ifndef MARAS_CORE_DRUG_ADR_RULE_H_
#define MARAS_CORE_DRUG_ADR_RULE_H_

#include <cstdint>
#include <string>

#include "mining/concept_lattice.h"
#include "mining/item_dictionary.h"
#include "mining/itemset.h"
#include "util/statusor.h"

namespace maras::core {

// A drug-ADR association (Section 3.1): antecedent ⊆ I_drug,
// consequent ⊆ I_ade. For MARAS the rule of an itemset is its unique
// domain partition: all drugs ⇒ all ADRs.
struct DrugAdrRule {
  mining::Itemset drugs;  // antecedent, sorted
  mining::Itemset adrs;   // consequent, sorted
  size_t support = 0;     // supp(drugs ∪ adrs), absolute count (Formula 2.1)
  size_t antecedent_support = 0;
  size_t consequent_support = 0;
  double confidence = 0.0;
  double lift = 0.0;

  mining::Itemset CompleteItemset() const {
    return mining::Union(drugs, adrs);
  }
};

// Splits `itemset` by item domain. Returns InvalidArgument when the itemset
// lacks a drug or an ADR (no drug-ADR rule exists for it).
maras::StatusOr<DrugAdrRule> SplitByDomain(
    const mining::Itemset& itemset, const mining::ItemDictionary& items);

// supp(subset) for `subset` ⊆ the itemset of lattice node `node`: the
// support of closure(subset), the node lattice.DescendToClosure reaches from
// `node`. Exact under the lattice's exactness precondition
// (concept_lattice.h), which holds below every target the rules stage emits.
// The one support oracle of rule and MCAC construction.
inline size_t LatticeSupport(const mining::ConceptLattice& lattice,
                             uint32_t node, const mining::Itemset& subset) {
  return static_cast<size_t>(
      lattice.NodeSupport(lattice.DescendToClosure(node, subset)));
}

// Sets rule->confidence and rule->lift from its three supports;
// `num_reports` is the database size.
void SetRuleMeasures(size_t num_reports, DrugAdrRule* rule);

// "[DRUG A] [DRUG B] => [ADR X] [ADR Y]" with names from the dictionary.
std::string RuleToString(const DrugAdrRule& rule,
                         const mining::ItemDictionary& items);

}  // namespace maras::core

#endif  // MARAS_CORE_DRUG_ADR_RULE_H_
