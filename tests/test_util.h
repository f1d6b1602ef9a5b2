#ifndef MARAS_TESTS_TEST_UTIL_H_
#define MARAS_TESTS_TEST_UTIL_H_

// Shared fixtures for core-layer tests: builds an item dictionary plus a
// transaction database from readable report specs, so tests spell out drugs
// and ADRs by name instead of raw ids, and builds MCACs the way the
// pipeline does.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/drug_adr_rule.h"
#include "core/mcac.h"
#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/item_dictionary.h"
#include "mining/transaction_db.h"
#include "util/run_context.h"
#include "util/statusor.h"

namespace maras::test {

struct ReportSpec {
  std::vector<std::string> drugs;
  std::vector<std::string> adrs;
};

struct MiniCorpus {
  mining::ItemDictionary items;
  mining::TransactionDatabase db;

  mining::ItemId Drug(const std::string& name) {
    auto id = items.Intern(name, mining::ItemDomain::kDrug);
    EXPECT_TRUE(id.ok());
    return *id;
  }
  mining::ItemId Adr(const std::string& name) {
    auto id = items.Intern(name, mining::ItemDomain::kAdr);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  void Add(const ReportSpec& spec, size_t copies = 1) {
    mining::Itemset t;
    for (const auto& d : spec.drugs) t.push_back(Drug(d));
    for (const auto& a : spec.adrs) t.push_back(Adr(a));
    for (size_t i = 0; i < copies; ++i) db.Add(t);
  }

  mining::Itemset Drugs(const std::vector<std::string>& names) {
    mining::Itemset s;
    for (const auto& n : names) s.push_back(Drug(n));
    return mining::MakeItemset(std::move(s));
  }
  mining::Itemset Adrs(const std::vector<std::string>& names) {
    mining::Itemset s;
    for (const auto& n : names) s.push_back(Adr(n));
    return mining::MakeItemset(std::move(s));
  }
};

// The corpus behind the paper's Table 3.1 example: XOLAIR + SINGULAIR +
// PREDNISONE => ASTHMA as an exclusive three-drug signal, with weak
// single-drug and pair context.
inline MiniCorpus AsthmaCorpus() {
  MiniCorpus corpus;
  // 12 reports of the full triple with asthma.
  corpus.Add({{"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"}}, 12);
  // Individual drugs appear often WITHOUT asthma (strong background use).
  corpus.Add({{"XOLAIR"}, {"RASH"}}, 20);
  corpus.Add({{"SINGULAIR"}, {"HEADACHE"}}, 25);
  corpus.Add({{"PREDNISONE"}, {"INSOMNIA"}}, 30);
  // A little single-drug asthma reporting (non-zero context).
  corpus.Add({{"XOLAIR"}, {"ASTHMA"}}, 3);
  corpus.Add({{"SINGULAIR"}, {"ASTHMA"}}, 2);
  // Unrelated noise.
  corpus.Add({{"ASPIRIN"}, {"NAUSEA"}}, 15);
  return corpus;
}

// The production BuildMcac over the concept lattice of the corpus's closed
// family, mined uncapped at min_support 1: every database-closed target is
// a lattice node, so a closed target gets its exact MCAC and a non-closed
// one gets Internal.
inline maras::StatusOr<core::Mcac> LatticeMcac(
    const MiniCorpus& corpus, const core::DrugAdrRule& target) {
  MARAS_ASSIGN_OR_RETURN(
      mining::FrequentItemsetResult closed,
      mining::MineClosed(corpus.db, mining::MiningOptions{
                                        .min_support = 1,
                                        .max_itemset_size = 0}));
  const RunContext ctx;
  MARAS_ASSIGN_OR_RETURN(mining::ConceptLattice lattice,
                         mining::ConceptLattice::Build(closed, 1, ctx));
  return core::BuildMcac(target, lattice, corpus.db.size());
}

// The paper's drill-down computed the plain way, independent of the
// bitmap path core::SupportingReports takes: the database's tid-list
// intersection for the rule's itemset, mapped through `primary_ids` (a tid
// past its end is dropped). Tests compare the library's lists to this.
inline std::vector<uint64_t> ReferenceSupportingReports(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids, const core::DrugAdrRule& rule) {
  std::vector<uint64_t> reports;
  for (mining::TransactionId tid :
       db.ContainingTransactions(rule.CompleteItemset())) {
    if (tid < primary_ids.size()) reports.push_back(primary_ids[tid]);
  }
  return reports;
}

}  // namespace maras::test

#endif  // MARAS_TESTS_TEST_UTIL_H_
