#ifndef MARAS_TESTS_ORACLES_RULES_DATABASE_H_
#define MARAS_TESTS_ORACLES_RULES_DATABASE_H_

#include <vector>

#include "core/analyzer.h"
#include "core/drug_adr_rule.h"
#include "mining/frequent_itemsets.h"
#include "mining/item_dictionary.h"
#include "mining/itemset.h"
#include "mining/transaction_db.h"
#include "util/statusor.h"

namespace maras::core {

// Builds the fully-measured rule for `itemset`: splits by domain and fills
// supports/confidence/lift from exact database counts. InvalidArgument when
// the itemset lacks a drug or an ADR.
maras::StatusOr<DrugAdrRule> BuildRule(const mining::Itemset& itemset,
                                       const mining::ItemDictionary& items,
                                       const mining::TransactionDatabase& db);

// Reference rules stage by database queries, the reference for the
// lattice-backed BuildRulesStage: the same candidate filter (at least two
// drugs, at most analyzer.max_drugs_per_rule, at least one ADR), then every
// candidate verified with IsClosedInDatabase whatever its size and measured
// with BuildRule, kept at analyzer.min_confidence. Serial, in closed order.
maras::StatusOr<std::vector<DrugAdrRule>> DatabaseRules(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer);

}  // namespace maras::core

#endif  // MARAS_TESTS_ORACLES_RULES_DATABASE_H_
