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

}  // namespace
}  // namespace maras::core
