#include "core/explain.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"
#include "util/random.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

Mcac ValueMcac(double target, const std::vector<std::vector<double>>& levels) {
  Mcac mcac;
  mcac.target.confidence = target;
  for (size_t i = 0; i <= levels.size(); ++i) {
    mcac.target.drugs.push_back(static_cast<mining::ItemId>(i));
  }
  for (const auto& level : levels) {
    std::vector<DrugAdrRule> rules;
    for (double v : level) {
      DrugAdrRule rule;
      rule.confidence = v;
      rules.push_back(rule);
    }
    mcac.levels.push_back(std::move(rules));
  }
  return mcac;
}

TEST(ExplainTest, ContributionsSumToScore) {
  maras::Rng rng(515);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<double>> levels(1 + rng.Uniform(3));
    for (auto& level : levels) {
      for (size_t i = 1 + rng.Uniform(4); i > 0; --i) {
        level.push_back(rng.NextDouble());
      }
    }
    Mcac mcac = ValueMcac(rng.NextDouble(), levels);
    ExclusivenessOptions options;
    options.theta = rng.NextDouble();
    options.use_decay = rng.Bernoulli(0.5);
    ScoreExplanation explanation = ExplainExclusiveness(mcac, options);
    EXPECT_NEAR(explanation.score, Exclusiveness(mcac, options), 1e-12);
    double sum = 0.0;
    for (const auto& level : explanation.levels) sum += level.contribution;
    EXPECT_NEAR(sum, explanation.score, 1e-12);
  }
}

TEST(ExplainTest, HandComputedBreakdown) {
  // Same fixture as the exclusiveness hand-computed test.
  Mcac mcac = ValueMcac(0.8, {{0.1, 0.3}, {0.5}});
  ExclusivenessOptions options;
  options.theta = 0.0;
  ScoreExplanation explanation = ExplainExclusiveness(mcac, options);
  ASSERT_EQ(explanation.levels.size(), 2u);
  EXPECT_DOUBLE_EQ(explanation.target_value, 0.8);
  EXPECT_NEAR(explanation.levels[0].mean_value, 0.2, 1e-12);
  EXPECT_NEAR(explanation.levels[0].contrast, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(explanation.levels[0].decay_factor, 1.0);
  EXPECT_NEAR(explanation.levels[0].contribution, 0.3, 1e-12);  // 0.6/2
  EXPECT_NEAR(explanation.levels[1].decay_factor, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(explanation.levels[1].contribution, 0.1, 1e-12);
  EXPECT_NEAR(explanation.score, 0.4, 1e-12);
  EXPECT_NEAR(explanation.strongest_context_value, 0.5, 1e-12);
}

TEST(ExplainTest, EmptyContext) {
  Mcac mcac = ValueMcac(0.9, {});
  ScoreExplanation explanation =
      ExplainExclusiveness(mcac, ExclusivenessOptions{});
  EXPECT_TRUE(explanation.levels.empty());
  EXPECT_DOUBLE_EQ(explanation.score, 0.0);
  EXPECT_DOUBLE_EQ(explanation.target_value, 0.9);
}

TEST(ExplainTest, SkipsEmptyLevels) {
  Mcac mcac = ValueMcac(0.9, {{0.1}, {}});
  ScoreExplanation explanation =
      ExplainExclusiveness(mcac, ExclusivenessOptions{});
  ASSERT_EQ(explanation.levels.size(), 1u);
  EXPECT_EQ(explanation.levels[0].drugs_per_rule, 1u);
}

TEST(ExplainTest, RenderNamesStrongestRules) {
  MiniCorpus corpus = AsthmaCorpus();
  mining::Itemset whole = mining::Union(
      corpus.Drugs({"XOLAIR", "SINGULAIR", "PREDNISONE"}),
      corpus.Adrs({"ASTHMA"}));
  auto target = BuildRule(whole, corpus.items, corpus.db);
  ASSERT_TRUE(target.ok());
  auto mcac = EnumerateMcac(*target, corpus.db);
  ASSERT_TRUE(mcac.ok());
  ExclusivenessOptions options;
  ScoreExplanation explanation = ExplainExclusiveness(*mcac, options);
  std::string text = RenderExplanation(explanation, *mcac, corpus.items);
  EXPECT_NE(text.find("exclusiveness"), std::string::npos);
  EXPECT_NE(text.find("level 1 (3 rules)"), std::string::npos);
  EXPECT_NE(text.find("level 2 (3 rules)"), std::string::npos);
  EXPECT_NE(text.find("strongest: "), std::string::npos);
  // XOLAIR has the highest single-drug asthma confidence in this corpus.
  EXPECT_NE(text.find("[XOLAIR]"), std::string::npos);
}

TEST(ExplainTest, PenaltyFactorReflectsTheta) {
  Mcac spread = ValueMcac(0.9, {{0.1, 0.5}});
  ExclusivenessOptions strict;
  strict.theta = 1.0;
  ScoreExplanation explanation = ExplainExclusiveness(spread, strict);
  ASSERT_EQ(explanation.levels.size(), 1u);
  EXPECT_LT(explanation.levels[0].penalty_factor, 1.0);
  ExclusivenessOptions lax;
  lax.theta = 0.0;
  EXPECT_DOUBLE_EQ(
      ExplainExclusiveness(spread, lax).levels[0].penalty_factor, 1.0);
}

}  // namespace
}  // namespace maras::core
