#include "core/mcac.h"

#include <algorithm>
#include <string>
#include <utility>

namespace maras::core {

size_t Mcac::ContextSize() const {
  size_t count = 0;
  for (const auto& level : levels) count += level.size();
  return count;
}

maras::StatusOr<uint64_t> Mcac::ExpectedContextSize(size_t drug_count) {
  if (drug_count < 2) {
    return maras::Status::InvalidArgument(
        "MCAC target must combine at least two drugs, got " +
        std::to_string(drug_count));
  }
  if (drug_count >= 64) {
    return maras::Status::InvalidArgument(
        "context size 2^" + std::to_string(drug_count) +
        " − 2 overflows uint64_t");
  }
  return (uint64_t{1} << drug_count) - 2;
}

maras::StatusOr<Mcac> BuildMcac(const DrugAdrRule& target,
                                const mining::ConceptLattice& lattice,
                                size_t num_reports) {
  MARAS_ASSIGN_OR_RETURN(const uint64_t expected_contexts,
                         Mcac::ExpectedContextSize(target.drugs.size()));
  if (target.drugs.size() > kMaxMcacAntecedentDrugs) {
    return maras::Status::InvalidArgument(
        "target antecedent of " + std::to_string(target.drugs.size()) +
        " drugs exceeds the enumeration bound of " +
        std::to_string(kMaxMcacAntecedentDrugs) + " (context would hold " +
        std::to_string(expected_contexts) + " rules)");
  }
  const mining::Itemset whole = target.CompleteItemset();
  const uint32_t node = lattice.FindNode(whole);
  if (node == mining::ConceptLattice::kNotFound) {
    return maras::Status::Internal("MCAC target " + mining::ToString(whole) +
                                   " is not a concept lattice node");
  }
  Mcac mcac;
  mcac.target = target;
  mcac.levels.resize(target.drugs.size() - 1);
  const size_t consequent_support = LatticeSupport(lattice, node, target.adrs);
  mining::ForEachProperSubset(
      target.drugs, [&](const mining::Itemset& subset) {
        DrugAdrRule context;
        context.drugs = subset;
        context.adrs = target.adrs;
        context.antecedent_support = LatticeSupport(lattice, node, subset);
        context.consequent_support = consequent_support;
        context.support =
            LatticeSupport(lattice, node, mining::Union(subset, target.adrs));
        SetRuleMeasures(num_reports, &context);
        mcac.levels[subset.size() - 1].push_back(std::move(context));
      });

  for (auto& level : mcac.levels) {
    std::sort(level.begin(), level.end(),
              [](const DrugAdrRule& a, const DrugAdrRule& b) {
                if (a.confidence != b.confidence) {
                  return a.confidence > b.confidence;
                }
                return a.drugs < b.drugs;  // deterministic tie-break
              });
  }
  return mcac;
}

}  // namespace maras::core
