#include "core/disproportionality.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace maras::core {
namespace {

using maras::test::MiniCorpus;

TEST(ContingencyTest, PartitionsDatabase) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"X"}}, 6);   // a
  corpus.Add({{"A", "B"}, {"Y"}}, 2);   // b
  corpus.Add({{"A"}, {"X"}}, 3);        // c (lacks B)
  corpus.Add({{"C"}, {"Z"}}, 9);        // d
  ContingencyTable t = MakeContingencyTable(
      corpus.db, corpus.Drugs({"A", "B"}), corpus.Adrs({"X"}));
  EXPECT_EQ(t.a, 6u);
  EXPECT_EQ(t.b, 2u);
  EXPECT_EQ(t.c, 3u);
  EXPECT_EQ(t.d, 9u);
  EXPECT_EQ(t.n(), corpus.db.size());
}

TEST(PrrTest, HandComputed) {
  // Exposed rate 6/8 = 0.75, background rate 3/12 = 0.25 -> PRR 3.
  ContingencyTable t{6, 2, 3, 9};
  EXPECT_NEAR(Prr(t), 3.0, 1e-12);
}

TEST(PrrTest, IndependenceGivesOne) {
  // Equal rates in both strata.
  ContingencyTable t{5, 5, 50, 50};
  EXPECT_NEAR(Prr(t), 1.0, 1e-12);
}

TEST(PrrTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(Prr({0, 0, 5, 5}), 0.0);     // no exposure
  EXPECT_DOUBLE_EQ(Prr({0, 5, 5, 5}), 0.0);     // exposed but no cases
  EXPECT_DOUBLE_EQ(Prr({3, 1, 0, 10}),
                   kDisproportionalityCap);      // no background cases
}

TEST(RorTest, HandComputed) {
  // (6*9)/(2*3) = 9.
  ContingencyTable t{6, 2, 3, 9};
  EXPECT_NEAR(Ror(t), 9.0, 1e-12);
}

TEST(RorTest, Degenerate) {
  EXPECT_DOUBLE_EQ(Ror({0, 2, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(Ror({2, 0, 3, 4}), kDisproportionalityCap);
  EXPECT_DOUBLE_EQ(Ror({2, 3, 0, 4}), kDisproportionalityCap);
}

TEST(ChiSquaredTest, ZeroForIndependence) {
  // Perfectly proportional table: statistic ~0 after Yates correction.
  ContingencyTable t{10, 10, 100, 100};
  EXPECT_LT(ChiSquaredYates(t), 0.2);
}

TEST(ChiSquaredTest, LargeForStrongAssociation) {
  ContingencyTable t{50, 5, 5, 500};
  EXPECT_GT(ChiSquaredYates(t), 100.0);
}

TEST(ChiSquaredTest, YatesNeverNegative) {
  // Tiny counts where |ad−bc| < n/2 would go negative without the clamp.
  ContingencyTable t{1, 1, 1, 1};
  EXPECT_GE(ChiSquaredYates(t), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquaredYates({0, 0, 0, 0}), 0.0);
}

TEST(InformationComponentTest, SignMatchesAssociation) {
  // Positive association -> IC > 0, negative -> IC < 0.
  EXPECT_GT(InformationComponent({50, 5, 5, 500}), 0.0);
  EXPECT_LT(InformationComponent({1, 50, 50, 10}), 0.0);
}

TEST(InformationComponentTest, ShrinkageTamesSmallCounts) {
  // One report of a one-in-a-million pair: the raw lift is ~1e6 (log2 ≈ 20
  // bits); the +0.5 shrinkage caps IC at log2(1.5/0.5) ≈ 1.58 bits.
  ContingencyTable t{1, 0, 0, 999997};
  EXPECT_LT(InformationComponent(t), 1.6);
  EXPECT_GT(InformationComponent(t), 1.5);
}

TEST(EvansCriteriaTest, Thresholds) {
  DisproportionalityResult r;
  r.table = {3, 1, 1, 100};
  r.prr = 2.5;
  r.chi_squared = 5.0;
  EXPECT_TRUE(r.MeetsEvansCriteria());
  r.prr = 1.9;
  EXPECT_FALSE(r.MeetsEvansCriteria());
  r.prr = 2.5;
  r.chi_squared = 3.9;
  EXPECT_FALSE(r.MeetsEvansCriteria());
  r.chi_squared = 5.0;
  r.table.a = 2;
  EXPECT_FALSE(r.MeetsEvansCriteria());
}

TEST(EvaluateTest, EndToEndOnCorpus) {
  MiniCorpus corpus;
  corpus.Add({{"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}}, 12);
  corpus.Add({{"ASPIRIN"}, {"NAUSEA"}}, 40);
  corpus.Add({{"WARFARIN"}, {"DIZZINESS"}}, 40);
  corpus.Add({{"METFORMIN"}, {"NAUSEA"}}, 100);
  DrugAdrRule rule;
  rule.drugs = corpus.Drugs({"ASPIRIN", "WARFARIN"});
  rule.adrs = corpus.Adrs({"HAEMORRHAGE"});
  DisproportionalityResult result =
      EvaluateDisproportionality(corpus.db, rule);
  EXPECT_EQ(result.table.a, 12u);
  EXPECT_EQ(result.table.b, 0u);
  EXPECT_EQ(result.table.c, 0u);
  EXPECT_GT(result.prr, 2.0);
  EXPECT_GT(result.chi_squared, 4.0);
  EXPECT_GT(result.information_component, 1.0);
  EXPECT_TRUE(result.MeetsEvansCriteria());
}

TEST(EvaluateTest, NoSignalForRandomPair) {
  MiniCorpus corpus;
  // X occurs everywhere; pair {A,B} sees it at the base rate.
  corpus.Add({{"A", "B"}, {"X"}}, 5);
  corpus.Add({{"A", "B"}, {"Y"}}, 5);
  corpus.Add({{"C"}, {"X"}}, 50);
  corpus.Add({{"C"}, {"Y"}}, 50);
  DrugAdrRule rule;
  rule.drugs = corpus.Drugs({"A", "B"});
  rule.adrs = corpus.Adrs({"X"});
  DisproportionalityResult result =
      EvaluateDisproportionality(corpus.db, rule);
  EXPECT_NEAR(result.prr, 1.0, 0.05);
  EXPECT_FALSE(result.MeetsEvansCriteria());
}

TEST(IntervalTest, PrrIntervalCoversEstimate) {
  ContingencyTable t{20, 30, 40, 400};
  RatioInterval ci = PrrInterval(t);
  double prr = Prr(t);
  EXPECT_GT(ci.lower, 0.0);
  EXPECT_LT(ci.lower, prr);
  EXPECT_GT(ci.upper, prr);
}

TEST(IntervalTest, WidthShrinksWithCounts) {
  RatioInterval small = PrrInterval({5, 5, 5, 50});
  RatioInterval large = PrrInterval({500, 500, 500, 5000});
  EXPECT_GT(std::log(small.upper) - std::log(small.lower),
            std::log(large.upper) - std::log(large.lower));
}

TEST(IntervalTest, DegenerateCellsGiveVacuousInterval) {
  // PRR needs exposed and unexposed cases: a == 0 or c == 0 is degenerate.
  for (const ContingencyTable& t :
       {ContingencyTable{0, 5, 5, 5}, ContingencyTable{5, 5, 0, 5}}) {
    RatioInterval ci = PrrInterval(t);
    EXPECT_DOUBLE_EQ(ci.lower, 0.0);
    EXPECT_DOUBLE_EQ(ci.upper, kDisproportionalityCap);
  }
}

TEST(IntervalTest, StrongSignalLowerBoundClearsOne) {
  // The surveillance decision rule: signal when the CI's lower bound > 1.
  ContingencyTable strong{50, 5, 5, 500};
  EXPECT_GT(PrrInterval(strong).lower, 1.0);
  ContingencyTable null_assoc{10, 10, 100, 100};
  EXPECT_LE(PrrInterval(null_assoc).lower, 1.0);
}

// Relationship property: for rare exposure, ROR >= PRR >= 1 or both <= 1
// (odds ratios are more extreme than risk ratios).
TEST(RelationshipTest, RorAtLeastAsExtremeAsPrr) {
  for (const ContingencyTable& t :
       {ContingencyTable{6, 2, 3, 9}, ContingencyTable{20, 10, 40, 400},
        ContingencyTable{2, 20, 100, 300}}) {
    double prr = Prr(t);
    double ror = Ror(t);
    if (prr > 1.0) {
      EXPECT_GE(ror, prr);
    } else if (prr > 0.0) {
      EXPECT_LE(ror, prr);
    }
  }
}

}  // namespace
}  // namespace maras::core
