#include "core/analyzer.h"

#include <gtest/gtest.h>

#include <string>

#include "core/checkpoint.h"
#include "mining/closed_itemsets.h"
#include "test_util.h"
#include "util/run_context.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

AnalyzerOptions SmallOptions() {
  AnalyzerOptions options;
  options.mining.min_support = 2;
  options.mining.max_itemset_size = 6;
  return options;
}

TEST(AnalyzerTest, FindsInjectedTripleAsMcac) {
  MiniCorpus corpus = AsthmaCorpus();
  MarasAnalyzer analyzer(SmallOptions());
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.total_rules, result->stats.filtered_rules);
  EXPECT_GE(result->stats.filtered_rules, result->stats.mcac_count);
  mining::Itemset triple = corpus.Drugs({"XOLAIR", "SINGULAIR", "PREDNISONE"});
  bool found = false;
  for (const Mcac& mcac : result->mcacs) {
    if (mcac.target.drugs == triple) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzerTest, EveryMcacTargetIsClosedAndMultiDrug) {
  MiniCorpus corpus = AsthmaCorpus();
  MarasAnalyzer analyzer(SmallOptions());
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->mcacs.size(), 0u);
  for (const Mcac& mcac : result->mcacs) {
    EXPECT_GE(mcac.target.drugs.size(), 2u);
    EXPECT_GE(mcac.target.adrs.size(), 1u);
    EXPECT_TRUE(
        mining::IsClosedInDatabase(corpus.db, mcac.target.CompleteItemset()))
        << RuleToString(mcac.target, corpus.items);
    EXPECT_GE(mcac.target.support, 2u);
  }
}

TEST(AnalyzerTest, RuleSpaceShrinksMonotonically) {
  // Fig. 5.1's invariant: total >= filtered >= closed-mixed >= MCACs.
  MiniCorpus corpus = AsthmaCorpus();
  corpus.Add({{"ZANTAC", "TUMS", "MYLANTA"}, {"OSTEOPOROSIS"}}, 6);
  corpus.Add({{"ZANTAC"}, {"OSTEOPOROSIS"}}, 12);
  MarasAnalyzer analyzer(SmallOptions());
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.total_rules, result->stats.filtered_rules);
  EXPECT_GE(result->stats.filtered_rules, result->stats.closed_mixed);
  EXPECT_GE(result->stats.closed_mixed, result->stats.mcac_count);
  EXPECT_GT(result->stats.mcac_count, 0u);
}

TEST(AnalyzerTest, MinConfidenceFiltersTargets) {
  MiniCorpus corpus = AsthmaCorpus();
  // Add a weak multi-drug association (low confidence).
  corpus.Add({{"A", "B"}, {"NAUSEA"}}, 2);
  corpus.Add({{"A", "B"}, {"HEADACHE"}}, 18);
  AnalyzerOptions options = SmallOptions();
  options.min_confidence = 0.5;
  MarasAnalyzer analyzer(options);
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  for (const Mcac& mcac : result->mcacs) {
    EXPECT_GE(mcac.target.confidence, 0.5);
  }
}

TEST(AnalyzerTest, MaxDrugsPerRuleSkipsWideTargets) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B", "C", "D", "E", "F"}, {"X"}}, 4);
  corpus.Add({{"A"}, {"Y"}}, 3);
  AnalyzerOptions options = SmallOptions();
  options.max_drugs_per_rule = 3;
  options.mining.max_itemset_size = 8;
  MarasAnalyzer analyzer(options);
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  for (const Mcac& mcac : result->mcacs) {
    EXPECT_LE(mcac.target.drugs.size(), 3u);
  }
}

TEST(AnalyzerTest, EmptyDatabaseIsFailedPrecondition) {
  mining::ItemDictionary items;
  mining::TransactionDatabase db;
  MarasAnalyzer analyzer(SmallOptions());
  EXPECT_TRUE(
      analyzer.Analyze(items, db).status().IsFailedPrecondition());
}

TEST(AnalyzerTest, ExclusivenessRanksInjectedSignalAboveDecoy) {
  MiniCorpus corpus = AsthmaCorpus();
  // Decoy: single-drug-driven combination with equal raw confidence.
  corpus.Add({{"ZANTAC"}, {"OSTEOPOROSIS"}}, 40);
  corpus.Add({{"ZANTAC", "TUMS"}, {"OSTEOPOROSIS"}}, 12);
  corpus.Add({{"TUMS"}, {"HEADACHE"}}, 8);
  MarasAnalyzer analyzer(SmallOptions());
  auto result = analyzer.Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(result.ok());
  auto ranked = RankMcacs(result->mcacs,
                          RankingMethod::kExclusivenessConfidence,
                          analyzer.options().exclusiveness);
  ASSERT_GE(ranked.size(), 2u);
  mining::Itemset triple = corpus.Drugs({"XOLAIR", "SINGULAIR", "PREDNISONE"});
  mining::Itemset decoy = corpus.Drugs({"TUMS", "ZANTAC"});
  size_t triple_rank = ranked.size(), decoy_rank = ranked.size();
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].mcac.target.drugs == triple) {
      triple_rank = std::min(triple_rank, i);
    }
    if (ranked[i].mcac.target.drugs == decoy) {
      decoy_rank = std::min(decoy_rank, i);
    }
  }
  ASSERT_LT(triple_rank, ranked.size());
  ASSERT_LT(decoy_rank, ranked.size());
  EXPECT_LT(triple_rank, decoy_rank);
}

// Item i is in report t iff t % i == 0, so supp(S) = N / lcm(S) and raising
// min_support genuinely shrinks the family. Items below 25 are drugs, the
// rest ADRs, so the family holds multi-drug targets at every support.
MiniCorpus GradedCorpus() {
  MiniCorpus corpus;
  for (size_t t = 1; t <= 2000; ++t) {
    maras::test::ReportSpec spec;
    for (size_t i = 2; i <= 40; ++i) {
      if (t % i != 0) continue;
      (i < 25 ? spec.drugs : spec.adrs).push_back("I" + std::to_string(i));
    }
    if (!spec.drugs.empty() || !spec.adrs.empty()) corpus.Add(spec);
  }
  return corpus;
}

std::string RankedBytes(const AnalysisResult& result) {
  return EncodeRankedMcacs(RankMcacs(
      result.mcacs, RankingMethod::kExclusivenessConfidence, {}));
}

TEST(AnalyzerTest, DegradedAnalyzeEqualsUngovernedAtEscalatedSupport) {
  MiniCorpus corpus = GradedCorpus();
  MemoryBudget budget(1 << 19);  // trips at min_support 2 and 8, not 32
  RunContext ctx;
  ctx.budget = &budget;
  AnalyzerOptions governed = SmallOptions();
  governed.mining.context = &ctx;
  governed.degradation.enabled = true;
  governed.degradation.max_retries = 10;
  governed.degradation.support_factor = 4.0;
  auto degraded = MarasAnalyzer(governed).Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->truncated);
  const std::vector<std::string>& notes = degraded->degradation_notes;
  ASSERT_FALSE(notes.empty());
  size_t escalated = governed.mining.min_support;
  for (size_t i = 0; i < notes.size(); ++i) {
    escalated = EscalateSupport(escalated, governed.degradation.support_factor);
  }
  EXPECT_NE(notes.back().find("retrying at min_support=" +
                              std::to_string(escalated) + " "),
            std::string::npos)
      << notes.back();

  AnalyzerOptions ungoverned = SmallOptions();
  ungoverned.mining.min_support = escalated;
  auto reference = MarasAnalyzer(ungoverned).Analyze(corpus.items, corpus.db);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->mcacs.size(), 0u);
  EXPECT_FALSE(reference->truncated);
  EXPECT_EQ(RankedBytes(*degraded), RankedBytes(*reference));
  EXPECT_EQ(degraded->stats.total_rules, reference->stats.total_rules);
  EXPECT_EQ(degraded->stats.filtered_rules, reference->stats.filtered_rules);
  EXPECT_EQ(degraded->stats.closed_mixed, reference->stats.closed_mixed);
  EXPECT_EQ(degraded->stats.mcac_count, reference->stats.mcac_count);
}

TEST(SupportingReportsTest, MapsBackToPrimaryIds) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"X"}});      // tid 0
  corpus.Add({{"A"}, {"Y"}});           // tid 1
  corpus.Add({{"A", "B"}, {"X", "Y"}}); // tid 2
  std::vector<uint64_t> primary_ids = {111, 222, 333};
  DrugAdrRule rule;
  rule.drugs = corpus.Drugs({"A", "B"});
  rule.adrs = corpus.Adrs({"X"});
  auto reports = SupportingReports(corpus.db, primary_ids, rule);
  EXPECT_EQ(reports, (std::vector<uint64_t>{111, 333}));
}

}  // namespace
}  // namespace maras::core
