#include "core/mcac.h"

#include <gtest/gtest.h>

#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

DrugAdrRule TargetRule(MiniCorpus* corpus,
                       const std::vector<std::string>& drugs,
                       const std::vector<std::string>& adrs) {
  mining::Itemset whole =
      mining::Union(corpus->Drugs(drugs), corpus->Adrs(adrs));
  auto rule = BuildRule(whole, corpus->items, corpus->db);
  EXPECT_TRUE(rule.ok());
  return *rule;
}

TEST(McacTest, Table31StructureThreeDrugs) {
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(
      &corpus, {"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  // Exactly the paper's layout: 3 one-drug rules and 3 two-drug rules.
  ASSERT_EQ(mcac->levels.size(), 2u);
  EXPECT_EQ(mcac->levels[0].size(), 3u);
  EXPECT_EQ(mcac->levels[1].size(), 3u);
  EXPECT_EQ(mcac->ContextSize(), 6u);  // 2^3 − 2
}

TEST(McacTest, ContextRulesShareConsequent) {
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(
      &corpus, {"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  for (const auto& level : mcac->levels) {
    for (const auto& rule : level) {
      EXPECT_EQ(rule.adrs, target.adrs);
      EXPECT_TRUE(mining::IsSubset(rule.drugs, target.drugs));
      EXPECT_LT(rule.drugs.size(), target.drugs.size());
    }
  }
}

TEST(McacTest, ContextMeasuresAreExactDatabaseCounts) {
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(
      &corpus, {"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  for (const auto& level : mcac->levels) {
    for (const auto& rule : level) {
      EXPECT_EQ(rule.antecedent_support, corpus.db.Support(rule.drugs));
      EXPECT_EQ(rule.support,
                corpus.db.Support(mining::Union(rule.drugs, rule.adrs)));
      if (rule.antecedent_support > 0) {
        EXPECT_DOUBLE_EQ(rule.confidence,
                         static_cast<double>(rule.support) /
                             static_cast<double>(rule.antecedent_support));
      }
    }
  }
}

TEST(McacTest, SingleDrugContextConfidencesMatchHand) {
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(
      &corpus, {"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  // XOLAIR: 12 (triple) + 20 (rash) + 3 (asthma alone) = 35 reports,
  // asthma with XOLAIR: 12 + 3 = 15.
  bool found_xolair = false;
  auto xolair = corpus.Drugs({"XOLAIR"});
  for (const auto& rule : mcac->levels[0]) {
    if (rule.drugs == xolair) {
      found_xolair = true;
      EXPECT_EQ(rule.antecedent_support, 35u);
      EXPECT_EQ(rule.support, 15u);
      EXPECT_NEAR(rule.confidence, 15.0 / 35.0, 1e-12);
    }
  }
  EXPECT_TRUE(found_xolair);
}

TEST(McacTest, LevelsSortedByDescendingConfidence) {
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(
      &corpus, {"XOLAIR", "SINGULAIR", "PREDNISONE"}, {"ASTHMA"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  for (const auto& level : mcac->levels) {
    for (size_t i = 1; i < level.size(); ++i) {
      EXPECT_GE(level[i - 1].confidence, level[i].confidence);
    }
  }
}

TEST(McacTest, TwoDrugTargetHasSingleLevel) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"X"}}, 5);
  corpus.Add({{"A"}, {"Y"}}, 5);
  corpus.Add({{"B"}, {"Y"}}, 5);
  DrugAdrRule target = TargetRule(&corpus, {"A", "B"}, {"X"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  ASSERT_EQ(mcac->levels.size(), 1u);
  EXPECT_EQ(mcac->levels[0].size(), 2u);
}

TEST(McacTest, SingleDrugTargetRejected) {
  MiniCorpus corpus;
  corpus.Add({{"A"}, {"X"}}, 3);
  DrugAdrRule target = TargetRule(&corpus, {"A"}, {"X"});
  // Input checks fire before the lattice lookup, so no lattice is needed.
  EXPECT_TRUE(BuildMcac(target, mining::ConceptLattice{}, corpus.db.size())
                  .status()
                  .IsInvalidArgument());
}

TEST(McacTest, FourDrugContextComplete) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B", "C", "D"}, {"X"}}, 4);
  corpus.Add({{"A"}, {"Y"}}, 2);
  DrugAdrRule target = TargetRule(&corpus, {"A", "B", "C", "D"}, {"X"});
  auto mcac = test::LatticeMcac(corpus, target);
  ASSERT_TRUE(mcac.ok());
  ASSERT_EQ(mcac->levels.size(), 3u);
  EXPECT_EQ(mcac->levels[0].size(), 4u);   // C(4,1)
  EXPECT_EQ(mcac->levels[1].size(), 6u);   // C(4,2)
  EXPECT_EQ(mcac->levels[2].size(), 4u);   // C(4,3)
  EXPECT_EQ(mcac->ContextSize(), 14u);     // 2^4 − 2
}

TEST(McacTest, ExpectedContextSizeExactValues) {
  EXPECT_EQ(*Mcac::ExpectedContextSize(2), 2u);
  EXPECT_EQ(*Mcac::ExpectedContextSize(3), 6u);
  EXPECT_EQ(*Mcac::ExpectedContextSize(20), (uint64_t{1} << 20) - 2);
  // The largest representable antecedent: 2^63 − 2 still fits in uint64_t.
  EXPECT_EQ(*Mcac::ExpectedContextSize(63), (uint64_t{1} << 63) - 2);
}

TEST(McacTest, ExpectedContextSizeRejectsDegenerateAndOverflowing) {
  EXPECT_TRUE(Mcac::ExpectedContextSize(0).status().IsInvalidArgument());
  EXPECT_TRUE(Mcac::ExpectedContextSize(1).status().IsInvalidArgument());
  // 2^64 − 2 and beyond would wrap; the guard must fire, not the shift.
  EXPECT_TRUE(Mcac::ExpectedContextSize(64).status().IsInvalidArgument());
  EXPECT_TRUE(Mcac::ExpectedContextSize(65).status().IsInvalidArgument());
  EXPECT_TRUE(Mcac::ExpectedContextSize(1000).status().IsInvalidArgument());
}

TEST(McacTest, TargetPastAntecedentBoundIsStructuredError) {
  // 21 drugs is one past kMaxMcacAntecedentDrugs: BuildMcac must return a
  // structured InvalidArgument before it looks the target up or walks
  // 2^21 − 2 subsets.
  MiniCorpus corpus;
  std::vector<std::string> drugs;
  for (int i = 0; i < 21; ++i) drugs.push_back("D" + std::to_string(i));
  corpus.Add({drugs, {"X"}}, 3);
  DrugAdrRule target = TargetRule(&corpus, drugs, {"X"});
  const Status status =
      BuildMcac(target, mining::ConceptLattice{}, corpus.db.size()).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("21"), std::string::npos)
      << status.ToString();
}

TEST(McacTest, BoundaryTwentyDrugTargetPassesTheGate) {
  // At exactly kMaxMcacAntecedentDrugs the gate itself must not fire. The
  // full 2^20 − 2 enumeration is too slow for a unit test, so this only
  // checks the ExpectedContextSize contract the gate is built on.
  auto expected = Mcac::ExpectedContextSize(kMaxMcacAntecedentDrugs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, 1048574u);
  auto over = Mcac::ExpectedContextSize(kMaxMcacAntecedentDrugs + 1);
  ASSERT_TRUE(over.ok());
  EXPECT_GT(*over, 1048574u);
}

TEST(McacTest, NonClosedTargetIsInternalNamingIt) {
  // XOLAIR and SINGULAIR are only ever reported together with PREDNISONE,
  // so {XOLAIR, SINGULAIR, ASTHMA} is not closed: it is no lattice node, and
  // BuildMcac must say so instead of falling back to the database.
  MiniCorpus corpus = AsthmaCorpus();
  DrugAdrRule target = TargetRule(&corpus, {"XOLAIR", "SINGULAIR"}, {"ASTHMA"});
  const Status status = test::LatticeMcac(corpus, target).status();
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  const std::string name = mining::ToString(target.CompleteItemset());
  EXPECT_NE(status.ToString().find(name), std::string::npos)
      << status.ToString();
}

TEST(McacTest, LatticeBackedBuilderMatchesEnumeration) {
  // Every multi-drug closed target of the corpus: BuildMcac over the lattice
  // must equal the per-subset database enumeration oracle field for field.
  MiniCorpus corpus = AsthmaCorpus();
  corpus.Add({{"XOLAIR", "SINGULAIR"}, {"RASH"}}, 4);
  corpus.Add({{"ASPIRIN", "PREDNISONE", "SINGULAIR"}, {"NAUSEA"}}, 3);
  auto closed = mining::MineClosed(
      corpus.db, mining::MiningOptions{.min_support = 1});
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  size_t compared = 0;
  for (const mining::FrequentItemset& fi : closed->itemsets()) {
    auto target = BuildRule(fi.items, corpus.items, corpus.db);
    if (!target.ok() || target->drugs.size() < 2) continue;
    auto got = test::LatticeMcac(corpus, *target);
    auto want = EnumerateMcac(*target, corpus.db);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->levels.size(), want->levels.size());
    for (size_t l = 0; l < want->levels.size(); ++l) {
      ASSERT_EQ(got->levels[l].size(), want->levels[l].size());
      for (size_t r = 0; r < want->levels[l].size(); ++r) {
        const DrugAdrRule& a = got->levels[l][r];
        const DrugAdrRule& b = want->levels[l][r];
        EXPECT_EQ(a.drugs, b.drugs);
        EXPECT_EQ(a.adrs, b.adrs);
        EXPECT_EQ(a.support, b.support);
        EXPECT_EQ(a.antecedent_support, b.antecedent_support);
        EXPECT_EQ(a.consequent_support, b.consequent_support);
        EXPECT_EQ(a.confidence, b.confidence);
        EXPECT_EQ(a.lift, b.lift);
      }
    }
    ++compared;
  }
  EXPECT_GE(compared, 3u);
}

}  // namespace
}  // namespace maras::core
