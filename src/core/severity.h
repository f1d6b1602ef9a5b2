#ifndef MARAS_CORE_SEVERITY_H_
#define MARAS_CORE_SEVERITY_H_

#include <string_view>
#include <vector>

#include "core/mcac.h"
#include "mining/item_dictionary.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// ADR severity classification. The MARAS interface lets the drug-safety
// evaluator "select drug interactions based on some defined criteria of
// interestingness such as drug interactions that may lead to severe ADRs
// which might need immediate action" (Section 4.1). This module provides
// that criterion: a curated severity lexicon over MedDRA-style preferred
// terms.
// ---------------------------------------------------------------------------

enum class Severity : int {
  kMild = 0,      // discomfort, no intervention required
  kModerate = 1,  // intervention or treatment change required
  kSevere = 2,    // hospitalization, disability, life-threatening
  kFatal = 3,     // death or directly life-ending events
};

const char* SeverityName(Severity severity);

// Severity of a single (normalized, uppercase) preferred term. Terms not in
// the lexicon default to kModerate — unknown reactions in surveillance are
// triaged, not ignored.
Severity SeverityOfTerm(std::string_view preferred_term);

// The highest severity among a rule's consequent ADRs.
Severity MaxSeverity(const DrugAdrRule& rule,
                     const mining::ItemDictionary& items);

}  // namespace maras::core

#endif  // MARAS_CORE_SEVERITY_H_
