#ifndef MARAS_CORE_MCAC_H_
#define MARAS_CORE_MCAC_H_

#include <cstdint>
#include <vector>

#include "core/drug_adr_rule.h"
#include "mining/concept_lattice.h"
#include "util/statusor.h"

namespace maras::core {

// Largest antecedent BuildMcac accepts: 2^20 − 2 subsets is already ~10^6
// rules per cluster, far past anything the paper's 2-4 drug combinations
// produce. Larger targets get a structured InvalidArgument (never a silent
// cap or a crash).
inline constexpr size_t kMaxMcacAntecedentDrugs = 20;

// Multi-level Contextual Association Cluster (Section 3.5): a target
// drug-ADR rule R ≡ A ⇒ B together with its complete context — every rule
// X ⇒ B with X a proper non-empty subset of A (Def 3.5.1/3.5.2) — grouped
// by antecedent cardinality, exactly like the paper's Table 3.1.
struct Mcac {
  DrugAdrRule target;
  // levels[k-1] holds the contextual rules with k drugs, for
  // k = 1 .. |target.drugs| − 1, each level sorted by descending
  // confidence (the glyph's within-level order).
  std::vector<std::vector<DrugAdrRule>> levels;

  // Number of contextual rules actually present across all levels.
  size_t ContextSize() const;

  // The 2^n − 2 context size an n-drug antecedent implies, computed in
  // uint64_t with an explicit overflow guard: n < 2 and n >= 64 both return
  // InvalidArgument instead of wrapping or capping.
  static maras::StatusOr<uint64_t> ExpectedContextSize(size_t drug_count);
};

// Builds the MCAC of `target` with exact context supports. Every context
// support is the support of a concept-lattice node below the target:
// supp(X) = supp(closure(X)), reached by lattice.DescendToClosure from the
// target's node. `lattice` must satisfy the descent exactness precondition
// (concept_lattice.h), which holds for every target the rules stage emits.
// Input checks run first: the target needs >= 2 and
// <= kMaxMcacAntecedentDrugs drugs (InvalidArgument otherwise). A target
// whose itemset is not a lattice node is Internal — there is no database
// fallback. `num_reports` is the database size, for lift.
maras::StatusOr<Mcac> BuildMcac(const DrugAdrRule& target,
                                const mining::ConceptLattice& lattice,
                                size_t num_reports);

}  // namespace maras::core

#endif  // MARAS_CORE_MCAC_H_
