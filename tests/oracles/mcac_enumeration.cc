#include "tests/oracles/mcac_enumeration.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "mining/itemset.h"
#include "mining/measures.h"

namespace maras::core {

maras::StatusOr<Mcac> EnumerateMcac(const DrugAdrRule& target,
                                    const mining::TransactionDatabase& db) {
  const size_t n = target.drugs.size();
  if (n < 2 || n > kMaxMcacAntecedentDrugs) {
    return maras::Status::InvalidArgument(
        "enumeration oracle takes 2.." +
        std::to_string(kMaxMcacAntecedentDrugs) + " drugs, got " +
        std::to_string(n));
  }
  Mcac mcac;
  mcac.target = target;
  mcac.levels.assign(n - 1, {});
  const size_t consequent_support = db.Support(target.adrs);
  const uint32_t full = (uint32_t{1} << n) - 1;
  for (uint32_t mask = 1; mask < full; ++mask) {
    DrugAdrRule context;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint32_t{1} << i)) context.drugs.push_back(target.drugs[i]);
    }
    context.adrs = target.adrs;
    mining::Itemset whole = context.drugs;
    whole.insert(whole.end(), target.adrs.begin(), target.adrs.end());
    std::sort(whole.begin(), whole.end());
    context.antecedent_support = db.Support(context.drugs);
    context.consequent_support = consequent_support;
    context.support = db.Support(whole);
    context.confidence =
        mining::Confidence(context.support, context.antecedent_support);
    context.lift =
        mining::Lift(context.support, context.antecedent_support,
                     consequent_support, db.size());
    mcac.levels[static_cast<size_t>(std::popcount(mask)) - 1].push_back(
        std::move(context));
  }
  for (std::vector<DrugAdrRule>& level : mcac.levels) {
    std::stable_sort(level.begin(), level.end(),
                     [](const DrugAdrRule& a, const DrugAdrRule& b) {
                       if (a.confidence > b.confidence) return true;
                       if (b.confidence > a.confidence) return false;
                       return a.drugs < b.drugs;
                     });
  }
  return mcac;
}

maras::StatusOr<std::vector<Mcac>> EnumerateMcacs(
    const std::vector<DrugAdrRule>& rules,
    const mining::TransactionDatabase& db) {
  std::vector<Mcac> mcacs;
  mcacs.reserve(rules.size());
  for (const DrugAdrRule& rule : rules) {
    MARAS_ASSIGN_OR_RETURN(Mcac mcac, EnumerateMcac(rule, db));
    mcacs.push_back(std::move(mcac));
  }
  return mcacs;
}

}  // namespace maras::core
