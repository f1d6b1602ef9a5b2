#ifndef MARAS_TESTS_ORACLES_MCAC_ENUMERATION_H_
#define MARAS_TESTS_ORACLES_MCAC_ENUMERATION_H_

#include <vector>

#include "core/drug_adr_rule.h"
#include "core/mcac.h"
#include "mining/transaction_db.h"
#include "util/statusor.h"

namespace maras::core {

// Reference MCAC construction by exhaustion: every context rule X ⇒ B of
// the target A ⇒ B (X a proper non-empty subset of A, one per bitmask) is
// counted directly against the database, so the result needs no mined
// family and no lattice. Levels are assembled and sorted here, apart from
// BuildMcac, to the Mcac contract: level k-1 holds the k-drug rules by
// descending confidence, ties by ascending drugs. Targets with fewer than
// two or more than kMaxMcacAntecedentDrugs drugs are InvalidArgument.
maras::StatusOr<Mcac> EnumerateMcac(const DrugAdrRule& target,
                                    const mining::TransactionDatabase& db);

// EnumerateMcac for each rule, in rule order; the first failure is returned.
maras::StatusOr<std::vector<Mcac>> EnumerateMcacs(
    const std::vector<DrugAdrRule>& rules,
    const mining::TransactionDatabase& db);

}  // namespace maras::core

#endif  // MARAS_TESTS_ORACLES_MCAC_ENUMERATION_H_
