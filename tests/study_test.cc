#include "study/user_study.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"

namespace maras::study {
namespace {

viz::GlyphSpec MakeSpec(double target, std::vector<std::vector<double>> levels) {
  viz::GlyphSpec spec;
  spec.target_value = target;
  spec.levels = std::move(levels);
  return spec;
}

StudyQuestion EasyQuestion(size_t drugs) {
  // One clearly exclusive candidate against clearly dominated decoys.
  StudyQuestion question;
  question.drugs_per_rule = drugs;
  std::vector<std::vector<double>> low_context(drugs - 1);
  std::vector<std::vector<double>> high_context(drugs - 1);
  for (size_t level = 0; level < drugs - 1; ++level) {
    size_t count = level == 0 ? drugs : drugs;  // approximate sizes
    low_context[level].assign(count, 0.05);
    high_context[level].assign(count, 0.85);
  }
  question.candidates.push_back(MakeSpec(0.95, low_context));   // interesting
  question.candidates.push_back(MakeSpec(0.9, high_context));   // dominated
  question.candidates.push_back(MakeSpec(0.88, high_context));  // dominated
  question.correct_indices = {0};
  return question;
}

TEST(IntegrationElementsTest, BarChartCountsEveryBar) {
  viz::GlyphSpec spec = MakeSpec(0.9, {{0.1, 0.2, 0.3}, {0.4, 0.5}});
  EXPECT_EQ(UserStudySimulator::IntegrationElements(
                spec, VisualEncoding::kBarChart),
            6u);  // target + 5 context
  EXPECT_EQ(UserStudySimulator::IntegrationElements(
                spec, VisualEncoding::kContextualGlyph),
            3u);  // target + 2 levels
}

TEST(UserStudyTest, DeterministicForSeed) {
  StudyConfig config;
  config.participants = 20;
  config.seed = 9;
  UserStudySimulator sim(config);
  std::vector<StudyQuestion> questions = {EasyQuestion(2), EasyQuestion(3)};
  StudyOutcome o1 = sim.Run(questions);
  StudyOutcome o2 = sim.Run(questions);
  ASSERT_EQ(o1.questions.size(), o2.questions.size());
  for (size_t i = 0; i < o1.questions.size(); ++i) {
    EXPECT_DOUBLE_EQ(o1.questions[i].glyph_accuracy,
                     o2.questions[i].glyph_accuracy);
    EXPECT_DOUBLE_EQ(o1.questions[i].barchart_accuracy,
                     o2.questions[i].barchart_accuracy);
  }
}

TEST(UserStudyTest, EasyQuestionsAnsweredWellByBothEncodings) {
  StudyConfig config;
  config.participants = 100;
  UserStudySimulator sim(config);
  StudyOutcome outcome = sim.Run({EasyQuestion(2)});
  ASSERT_EQ(outcome.questions.size(), 1u);
  EXPECT_GT(outcome.questions[0].glyph_accuracy, 0.8);
  EXPECT_GT(outcome.questions[0].barchart_accuracy, 0.5);
}

TEST(UserStudyTest, GlyphAdvantageGrowsWithDrugCount) {
  // The paper's headline: contextual glyphs beat bar charts, most clearly
  // for four-drug clusters (15 bars to integrate per candidate).
  StudyConfig config;
  config.participants = 300;
  UserStudySimulator sim(config);
  std::vector<StudyQuestion> questions = {EasyQuestion(2), EasyQuestion(4)};
  StudyOutcome outcome = sim.Run(questions);
  double gap2 = outcome.AccuracyForSize(2, VisualEncoding::kContextualGlyph) -
                outcome.AccuracyForSize(2, VisualEncoding::kBarChart);
  double gap4 = outcome.AccuracyForSize(4, VisualEncoding::kContextualGlyph) -
                outcome.AccuracyForSize(4, VisualEncoding::kBarChart);
  EXPECT_GE(gap4, gap2 - 0.02);  // advantage does not shrink
  EXPECT_GT(outcome.AccuracyForSize(4, VisualEncoding::kContextualGlyph),
            outcome.AccuracyForSize(4, VisualEncoding::kBarChart));
}

TEST(DecisionTimeTest, GlyphFasterAndGapGrowsWithDrugs) {
  // The paper's speed claim: glyph reads are faster, most clearly for
  // 4-drug clusters (15 bars per candidate vs 5 glyph rings).
  StudyQuestion q2 = EasyQuestion(2);
  StudyQuestion q4 = EasyQuestion(4);
  double g2 = UserStudySimulator::DecisionSeconds(
      q2, VisualEncoding::kContextualGlyph);
  double b2 =
      UserStudySimulator::DecisionSeconds(q2, VisualEncoding::kBarChart);
  double g4 = UserStudySimulator::DecisionSeconds(
      q4, VisualEncoding::kContextualGlyph);
  double b4 =
      UserStudySimulator::DecisionSeconds(q4, VisualEncoding::kBarChart);
  EXPECT_LT(g2, b2);
  EXPECT_LT(g4, b4);
  EXPECT_GT(b4 - g4, b2 - g2);
}

TEST(DecisionTimeTest, OutcomeCarriesTimes) {
  StudyConfig config;
  config.participants = 5;
  UserStudySimulator sim(config);
  StudyOutcome outcome = sim.Run({EasyQuestion(3)});
  ASSERT_EQ(outcome.questions.size(), 1u);
  EXPECT_GT(outcome.questions[0].glyph_seconds, 0.0);
  EXPECT_GT(outcome.questions[0].barchart_seconds,
            outcome.questions[0].glyph_seconds);
  EXPECT_GT(outcome.MeanSeconds(VisualEncoding::kBarChart),
            outcome.MeanSeconds(VisualEncoding::kContextualGlyph));
  EXPECT_DOUBLE_EQ(StudyOutcome{}.MeanSeconds(
                       VisualEncoding::kContextualGlyph),
                   0.0);
}

TEST(UserStudyTest, AccuracyForSizeAveragesQuestions) {
  StudyOutcome outcome;
  outcome.questions = {
      {"q1", 2, 0.8, 0.6},
      {"q2", 2, 0.6, 0.2},
      {"q3", 3, 1.0, 1.0},
  };
  EXPECT_NEAR(outcome.AccuracyForSize(2, VisualEncoding::kContextualGlyph),
              0.7, 1e-12);
  EXPECT_NEAR(outcome.AccuracyForSize(2, VisualEncoding::kBarChart), 0.4,
              1e-12);
  EXPECT_DOUBLE_EQ(outcome.AccuracyForSize(5, VisualEncoding::kBarChart),
                   0.0);
}

TEST(BuildQuestionsTest, FromRankedMcacs) {
  maras::test::MiniCorpus corpus = maras::test::AsthmaCorpus();
  corpus.Add({{"ZANTAC", "TUMS"}, {"OSTEOPOROSIS"}}, 6);
  corpus.Add({{"ZANTAC"}, {"OSTEOPOROSIS"}}, 20);
  corpus.Add({{"A", "B"}, {"NAUSEA"}}, 4);
  corpus.Add({{"A"}, {"NAUSEA"}}, 4);
  corpus.Add({{"C", "D"}, {"RASH"}}, 4);
  corpus.Add({{"C"}, {"HEADACHE"}}, 9);

  std::vector<core::Mcac> mcacs;
  for (const auto& drugs :
       {std::vector<std::string>{"ZANTAC", "TUMS"},
        std::vector<std::string>{"A", "B"},
        std::vector<std::string>{"C", "D"}}) {
    mining::Itemset whole;
    std::vector<std::string> adrs =
        drugs[0] == "ZANTAC" ? std::vector<std::string>{"OSTEOPOROSIS"}
        : drugs[0] == "A"    ? std::vector<std::string>{"NAUSEA"}
                             : std::vector<std::string>{"RASH"};
    whole = mining::Union(corpus.Drugs(drugs), corpus.Adrs(adrs));
    auto rule = core::BuildRule(whole, corpus.items, corpus.db);
    ASSERT_TRUE(rule.ok());
    auto mcac = core::EnumerateMcac(*rule, corpus.db);
    ASSERT_TRUE(mcac.ok());
    mcacs.push_back(*std::move(mcac));
  }
  auto ranked = core::RankMcacs(mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  auto questions = BuildQuestions(ranked, corpus.items, /*decoys=*/2,
                                  /*seed=*/5);
  ASSERT_EQ(questions.size(), 1u);  // all targets are 2-drug
  EXPECT_EQ(questions[0].candidates.size(), 3u);
  ASSERT_EQ(questions[0].correct_indices.size(), 1u);
  // The correct candidate is the top-ranked one.
  size_t correct = questions[0].correct_indices[0];
  double correct_target = questions[0].candidates[correct].target_value;
  EXPECT_DOUBLE_EQ(correct_target, ranked[0].mcac.target.confidence);
}

TEST(BuildQuestionsTest, SkipsSizesWithTooFewCandidates) {
  auto questions = BuildQuestions({}, mining::ItemDictionary{}, 2, 1);
  EXPECT_TRUE(questions.empty());
}

}  // namespace
}  // namespace maras::study
