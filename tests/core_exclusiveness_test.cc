#include "core/exclusiveness.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

// Builds an MCAC directly from value lists (target + per-level context) so
// formula tests control every input exactly.
Mcac ValueMcac(double target,
               const std::vector<std::vector<double>>& levels) {
  Mcac mcac;
  mcac.target.confidence = target;
  mcac.target.lift = target * 10.0;
  // Give the target as many drugs as levels + 1 for the decay function.
  for (size_t i = 0; i <= levels.size(); ++i) {
    mcac.target.drugs.push_back(static_cast<mining::ItemId>(i));
  }
  for (const auto& level : levels) {
    std::vector<DrugAdrRule> rules;
    for (double v : level) {
      DrugAdrRule r;
      r.confidence = v;
      r.lift = v * 10.0;
      rules.push_back(r);
    }
    mcac.levels.push_back(std::move(rules));
  }
  return mcac;
}

TEST(CoefficientOfVariationTest, Basics) {
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({}), 0.0);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({0.5}), 0.0);
  EXPECT_NEAR(CoefficientOfVariation({0.4, 0.4, 0.4}), 0.0, 1e-12);
  // Mean 0.5, population stddev 0.1 -> Cv 0.2.
  EXPECT_NEAR(CoefficientOfVariation({0.4, 0.6}), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({0.0, 0.0}), 0.0);  // zero mean
}

TEST(ExclusivenessSimpleTest, Formula33MeanContrast) {
  Mcac mcac = ValueMcac(0.9, {{0.1, 0.3}});
  EXPECT_NEAR(ExclusivenessSimple(mcac, RuleMeasure::kConfidence),
              0.9 - 0.2, 1e-12);
}

TEST(ExclusivenessSimpleTest, FlattensAcrossLevels) {
  Mcac mcac = ValueMcac(0.8, {{0.2, 0.4}, {0.6}});
  EXPECT_NEAR(ExclusivenessSimple(mcac, RuleMeasure::kConfidence),
              0.8 - (0.2 + 0.4 + 0.6) / 3.0, 1e-12);
}

TEST(ExclusivenessVariationTest, Formula34PenalizesSpread) {
  // Uniform context -> no penalty; spread context -> smaller score.
  Mcac uniform = ValueMcac(0.9, {{0.3, 0.3}});
  Mcac spread = ValueMcac(0.9, {{0.1, 0.5}});
  double u = ExclusivenessWithVariation(uniform, RuleMeasure::kConfidence,
                                        /*theta=*/0.8);
  double s = ExclusivenessWithVariation(spread, RuleMeasure::kConfidence,
                                        /*theta=*/0.8);
  EXPECT_NEAR(u, 0.6, 1e-12);  // contrast unchanged
  EXPECT_LT(s, u);
}

TEST(ExclusivenessVariationTest, ThetaZeroDisablesPenalty) {
  Mcac spread = ValueMcac(0.9, {{0.1, 0.5}});
  EXPECT_NEAR(
      ExclusivenessWithVariation(spread, RuleMeasure::kConfidence, 0.0),
      ExclusivenessSimple(spread, RuleMeasure::kConfidence), 1e-12);
}

TEST(ExclusivenessVariationTest, PenaltyFactorClampedAtZero) {
  // Extreme spread has Cv > 1; with theta 1 the factor clamps to 0, not
  // negative (the score must not flip sign).
  Mcac extreme = ValueMcac(0.9, {{0.001, 0.5}});
  double score =
      ExclusivenessWithVariation(extreme, RuleMeasure::kConfidence, 1.0);
  EXPECT_GE(score, 0.0);
}

TEST(ExclusivenessTest, Formula35HandComputed) {
  // Two levels, theta 0, decay on. n = 3 drugs.
  // Level 1 (k=1): mean 0.2, f_d = 1          -> 0.8 − 0.2 = 0.6
  // Level 2 (k=2): mean 0.5, f_d = 1 − 1/3    -> (0.8 − 0.5)·(2/3) = 0.2
  // Score = (0.6 + 0.2) / 2 = 0.4.
  Mcac mcac = ValueMcac(0.8, {{0.1, 0.3}, {0.5}});
  ExclusivenessOptions options;
  options.theta = 0.0;
  options.use_decay = true;
  options.measure = RuleMeasure::kConfidence;
  EXPECT_NEAR(Exclusiveness(mcac, options), 0.4, 1e-12);
}

TEST(ExclusivenessTest, DecayDownweightsDeepLevels) {
  Mcac mcac = ValueMcac(0.8, {{0.0}, {0.0}});
  ExclusivenessOptions with_decay;
  with_decay.theta = 0.0;
  with_decay.use_decay = true;
  ExclusivenessOptions no_decay = with_decay;
  no_decay.use_decay = false;
  // With zero context everywhere, decay shrinks the level-2 term only.
  EXPECT_LT(Exclusiveness(mcac, with_decay),
            Exclusiveness(mcac, no_decay));
}

TEST(ExclusivenessTest, PerfectSignalScoresHigh) {
  // Target confidence 1, all context 0 -> maximal interestingness.
  Mcac mcac = ValueMcac(1.0, {{0.0, 0.0}});
  ExclusivenessOptions options;
  options.theta = 0.5;
  EXPECT_NEAR(Exclusiveness(mcac, options), 1.0, 1e-12);
}

TEST(ExclusivenessTest, DominatedRuleScoresLowOrNegative) {
  // A single drug explains the ADRs better than the combination.
  Mcac mcac = ValueMcac(0.4, {{0.9, 0.1}});
  ExclusivenessOptions options;
  options.theta = 0.0;
  EXPECT_LT(Exclusiveness(mcac, options), 0.1);
  EXPECT_LT(Improvement(mcac), 0.0);  // Bayardo agrees: dominated
}

TEST(ExclusivenessTest, EmptyContextScoresZero) {
  Mcac mcac = ValueMcac(0.9, {});
  ExclusivenessOptions options;
  EXPECT_DOUBLE_EQ(Exclusiveness(mcac, options), 0.0);
}

TEST(ExclusivenessTest, LiftMeasureUsesLiftValues) {
  Mcac mcac = ValueMcac(0.8, {{0.2}});
  ExclusivenessOptions conf_opts;
  conf_opts.theta = 0.0;
  conf_opts.measure = RuleMeasure::kConfidence;
  ExclusivenessOptions lift_opts = conf_opts;
  lift_opts.measure = RuleMeasure::kLift;
  // Lift values are 10× the confidences in ValueMcac.
  EXPECT_NEAR(Exclusiveness(mcac, lift_opts),
              10.0 * Exclusiveness(mcac, conf_opts), 1e-9);
}

TEST(ImprovementTest, UsesStrongestContextRule) {
  Mcac mcac = ValueMcac(0.7, {{0.5, 0.2}, {0.6}});
  EXPECT_NEAR(Improvement(mcac), 0.7 - 0.6, 1e-12);
}

TEST(ImprovementTest, NoContextReturnsTarget) {
  Mcac mcac = ValueMcac(0.7, {});
  EXPECT_NEAR(Improvement(mcac), 0.7, 1e-12);
}

TEST(ExclusivenessTest, InterestingBeatsUninterestingOnRealCorpus) {
  MiniCorpus corpus = AsthmaCorpus();
  // Add an uninteresting combo: ZANTAC alone causes OSTEOPOROSIS, and the
  // ZANTAC+TUMS combo merely inherits it.
  corpus.Add({{"ZANTAC"}, {"OSTEOPOROSIS"}}, 30);
  corpus.Add({{"ZANTAC", "TUMS"}, {"OSTEOPOROSIS"}}, 10);
  corpus.Add({{"TUMS"}, {"HEADACHE"}}, 10);

  auto interesting_rule =
      BuildRule(mining::Union(corpus.Drugs({"XOLAIR", "SINGULAIR",
                                            "PREDNISONE"}),
                              corpus.Adrs({"ASTHMA"})),
                corpus.items, corpus.db);
  auto boring_rule = BuildRule(
      mining::Union(corpus.Drugs({"ZANTAC", "TUMS"}),
                    corpus.Adrs({"OSTEOPOROSIS"})),
      corpus.items, corpus.db);
  ASSERT_TRUE(interesting_rule.ok());
  ASSERT_TRUE(boring_rule.ok());
  auto interesting = EnumerateMcac(*interesting_rule, corpus.db);
  auto boring = EnumerateMcac(*boring_rule, corpus.db);
  ASSERT_TRUE(interesting.ok());
  ASSERT_TRUE(boring.ok());

  ExclusivenessOptions options;
  options.theta = 0.5;
  // Both rules have perfect confidence, so raw confidence cannot separate
  // them — exclusiveness can.
  EXPECT_DOUBLE_EQ(interesting->target.confidence, 1.0);
  EXPECT_DOUBLE_EQ(boring->target.confidence, 1.0);
  EXPECT_GT(Exclusiveness(*interesting, options),
            Exclusiveness(*boring, options));
}

// θ sweep property: raising θ never raises the score (penalty only grows).
class ThetaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ThetaSweepTest, ScoreMonotoneNonIncreasingInTheta) {
  Mcac mcac = ValueMcac(0.9, {{0.1, 0.4}, {0.2, 0.3, 0.5}});
  ExclusivenessOptions lo;
  lo.theta = GetParam();
  ExclusivenessOptions hi = lo;
  hi.theta = std::min(1.0, lo.theta + 0.25);
  EXPECT_GE(Exclusiveness(mcac, lo) + 1e-12, Exclusiveness(mcac, hi));
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThetaSweepTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.75));

}  // namespace
}  // namespace maras::core
