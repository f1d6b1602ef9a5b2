#include "core/severity.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"

namespace maras::core {
namespace {

using maras::test::MiniCorpus;

TEST(SeverityLexiconTest, KnownTerms) {
  EXPECT_EQ(SeverityOfTerm("DEATH"), Severity::kFatal);
  EXPECT_EQ(SeverityOfTerm("CARDIAC ARREST"), Severity::kFatal);
  EXPECT_EQ(SeverityOfTerm("HAEMORRHAGE"), Severity::kSevere);
  EXPECT_EQ(SeverityOfTerm("ACUTE RENAL FAILURE"), Severity::kSevere);
  EXPECT_EQ(SeverityOfTerm("NAUSEA"), Severity::kMild);
  EXPECT_EQ(SeverityOfTerm("HEADACHE"), Severity::kMild);
}

TEST(SeverityLexiconTest, UnknownTermsDefaultToModerate) {
  EXPECT_EQ(SeverityOfTerm("SOME NOVEL REACTION"), Severity::kModerate);
  EXPECT_EQ(SeverityOfTerm(""), Severity::kModerate);
}

TEST(SeverityLexiconTest, NormalizedHyphenFormCovered) {
  // The preprocessor maps '-' to ' '; both forms must classify the same.
  EXPECT_EQ(SeverityOfTerm("STEVENS-JOHNSON SYNDROME"), Severity::kSevere);
  EXPECT_EQ(SeverityOfTerm("STEVENS JOHNSON SYNDROME"), Severity::kSevere);
}

TEST(SeverityNameTest, AllNamed) {
  EXPECT_STREQ(SeverityName(Severity::kMild), "mild");
  EXPECT_STREQ(SeverityName(Severity::kModerate), "moderate");
  EXPECT_STREQ(SeverityName(Severity::kSevere), "severe");
  EXPECT_STREQ(SeverityName(Severity::kFatal), "fatal");
}

TEST(MaxSeverityTest, TakesWorstConsequentTerm) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"NAUSEA", "HAEMORRHAGE"}}, 2);
  DrugAdrRule rule;
  rule.drugs = corpus.Drugs({"A", "B"});
  rule.adrs = corpus.Adrs({"NAUSEA", "HAEMORRHAGE"});
  EXPECT_EQ(MaxSeverity(rule, corpus.items), Severity::kSevere);
}

TEST(FilterBySeverityTest, KeepsOnlyThresholdAndAbove) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"NAUSEA"}}, 3);
  corpus.Add({{"C", "D"}, {"HAEMORRHAGE"}}, 3);
  corpus.Add({{"E", "F"}, {"DEATH"}}, 3);

  auto make_mcac = [&](const std::vector<std::string>& drugs,
                       const std::vector<std::string>& adrs) {
    Mcac mcac;
    mcac.target.drugs = corpus.Drugs(drugs);
    mcac.target.adrs = corpus.Adrs(adrs);
    return mcac;
  };
  std::vector<Mcac> mcacs = {make_mcac({"A", "B"}, {"NAUSEA"}),
                             make_mcac({"C", "D"}, {"HAEMORRHAGE"}),
                             make_mcac({"E", "F"}, {"DEATH"})};

  auto severe = FilterBySeverity(mcacs, corpus.items, Severity::kSevere);
  EXPECT_EQ(severe.size(), 2u);
  auto fatal = FilterBySeverity(mcacs, corpus.items, Severity::kFatal);
  EXPECT_EQ(fatal.size(), 1u);
  auto all = FilterBySeverity(mcacs, corpus.items, Severity::kMild);
  EXPECT_EQ(all.size(), 3u);
}

TEST(SeverityWeightTest, MonotoneInSeverity) {
  EXPECT_LT(SeverityWeight(Severity::kMild),
            SeverityWeight(Severity::kModerate));
  EXPECT_LT(SeverityWeight(Severity::kModerate),
            SeverityWeight(Severity::kSevere));
  EXPECT_LT(SeverityWeight(Severity::kSevere),
            SeverityWeight(Severity::kFatal));
  EXPECT_DOUBLE_EQ(SeverityWeight(Severity::kMild), 1.0);
}

TEST(SeverityBoostTest, ReordersEquallyExclusiveClusters) {
  MiniCorpus corpus;
  // Two structurally identical exclusive signals, one mild one fatal.
  corpus.Add({{"A", "B"}, {"NAUSEA"}}, 10);
  corpus.Add({{"A"}, {"RASH"}}, 20);
  corpus.Add({{"B"}, {"RASH"}}, 20);
  corpus.Add({{"C", "D"}, {"DEATH"}}, 10);
  corpus.Add({{"C"}, {"RASH"}}, 20);
  corpus.Add({{"D"}, {"RASH"}}, 20);

  auto mild_rule = BuildRule(
      mining::Union(corpus.Drugs({"A", "B"}), corpus.Adrs({"NAUSEA"})),
      corpus.items, corpus.db);
  auto fatal_rule = BuildRule(
      mining::Union(corpus.Drugs({"C", "D"}), corpus.Adrs({"DEATH"})),
      corpus.items, corpus.db);
  ASSERT_TRUE(mild_rule.ok());
  ASSERT_TRUE(fatal_rule.ok());
  auto mild = EnumerateMcac(*mild_rule, corpus.db);
  auto fatal = EnumerateMcac(*fatal_rule, corpus.db);
  ASSERT_TRUE(mild.ok());
  ASSERT_TRUE(fatal.ok());

  ExclusivenessOptions options;
  // Equal plain exclusiveness by symmetry...
  EXPECT_NEAR(Exclusiveness(*mild, options), Exclusiveness(*fatal, options),
              1e-9);
  // ...but the fatal cluster wins after the severity boost.
  auto ranked = RankBySeverityBoostedScore({*mild, *fatal}, corpus.items,
                                           options);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].mcac.target.drugs, corpus.Drugs({"C", "D"}));
  EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(SeverityBoostTest, ScoreIsExclusivenessTimesWeight) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"DEATH"}}, 5);
  corpus.Add({{"A"}, {"RASH"}}, 5);
  auto rule = BuildRule(
      mining::Union(corpus.Drugs({"A", "B"}), corpus.Adrs({"DEATH"})),
      corpus.items, corpus.db);
  ASSERT_TRUE(rule.ok());
  auto mcac = EnumerateMcac(*rule, corpus.db);
  ASSERT_TRUE(mcac.ok());
  ExclusivenessOptions options;
  EXPECT_NEAR(SeverityBoostedScore(*mcac, corpus.items, options),
              Exclusiveness(*mcac, options) * 2.0, 1e-12);
}

}  // namespace
}  // namespace maras::core
