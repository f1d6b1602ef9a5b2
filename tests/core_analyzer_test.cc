#include "core/analyzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "mining/closed_itemsets.h"
#include "test_util.h"
#include "util/random.h"
#include "util/run_context.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;
using maras::test::ReferenceSupportingReports;

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
  EXPECT_EQ(reports, ReferenceSupportingReports(corpus.db, primary_ids, rule));
}

// --- SupportingReportLists vs the tid-list reference -----------------------

constexpr mining::ItemId kRandomItems = 10;

// `n` transactions over items [0, kRandomItems); item i is in a transaction
// with probability 0.2 + 0.07 * i, so most rules of 2-5 items have
// non-empty extents once there are a thousand transactions.
mining::TransactionDatabase RandomDatabase(maras::Rng* rng, size_t n) {
  mining::TransactionDatabase db;
  for (size_t t = 0; t < n; ++t) {
    mining::Itemset transaction;
    for (mining::ItemId item = 0; item < kRandomItems; ++item) {
      if (rng->Bernoulli(0.2 + 0.07 * item)) transaction.push_back(item);
    }
    db.Add(std::move(transaction));
  }
  return db;
}

mining::Itemset RandomItemset(maras::Rng* rng, size_t max_size,
                              mining::ItemId bound) {
  mining::Itemset set;
  const size_t size = 1 + rng->Uniform(max_size);
  for (size_t i = 0; i < size; ++i) {
    set.push_back(static_cast<mining::ItemId>(rng->Uniform(bound)));
  }
  return mining::MakeItemset(std::move(set));
}

// Distinct, unordered ids, so a list in tid order is not also sorted by id.
std::vector<uint64_t> RandomPrimaryIds(maras::Rng* rng, size_t n) {
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = (rng->Next() << 16) | i;
  return ids;
}

void ExpectListsMatchReference(const mining::TransactionDatabase& db,
                               const std::vector<uint64_t>& primary_ids,
                               const std::vector<DrugAdrRule>& rules) {
  std::vector<const DrugAdrRule*> pointers;
  for (const DrugAdrRule& rule : rules) pointers.push_back(&rule);
  const std::vector<std::vector<uint64_t>> lists =
      SupportingReportLists(db, primary_ids, pointers);
  ASSERT_EQ(lists.size(), rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    const std::vector<uint64_t> want =
        ReferenceSupportingReports(db, primary_ids, rules[r]);
    EXPECT_EQ(lists[r], want)
        << "rule " << r << " of " << rules.size() << ", " << db.size()
        << " transactions, " << primary_ids.size() << " primary ids";
    EXPECT_EQ(SupportingReports(db, primary_ids, rules[r]), want)
        << "rule " << r;
  }
}

TEST(SupportingReportListsTest, MatchesContainingTransactionsAcrossSizes) {
  // 63/64/65 put the last tid on either side of a word boundary, so the
  // trailing partial word of every bitmap is exercised; 8191/8192/8193 and
  // 16461 do the same for the derivation's 8,192-transaction blocks.
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 1000u, 8191u, 8192u, 8193u,
                   16461u}) {
    for (uint64_t seed : {3u, 71u, 1009u}) {
      maras::Rng rng(seed * 7919 + n);
      const mining::TransactionDatabase db = RandomDatabase(&rng, n);
      std::vector<DrugAdrRule> rules(60);
      for (DrugAdrRule& rule : rules) {
        rule.drugs = RandomItemset(&rng, 3, kRandomItems);
        rule.adrs = RandomItemset(&rng, 2, kRandomItems);
      }
      const std::vector<uint64_t> ids = RandomPrimaryIds(&rng, n);
      ExpectListsMatchReference(db, ids, rules);
      if (n >= 1000) {  // the comparison is not vacuous
        size_t non_empty = 0;
        for (const DrugAdrRule& rule : rules) {
          non_empty += !ReferenceSupportingReports(db, ids, rule).empty();
        }
        EXPECT_GT(non_empty, rules.size() / 2) << n << " transactions";
      }
      // Transactions past the end of primary_ids are dropped.
      ExpectListsMatchReference(
          db, std::vector<uint64_t>(ids.begin(), ids.begin() + n / 2), rules);
      ExpectListsMatchReference(db, {}, rules);
    }
  }
}

TEST(SupportingReportListsTest, ItemsAtOrPastTheBoundHaveNoReports) {
  maras::Rng rng(5);
  const mining::TransactionDatabase db = RandomDatabase(&rng, 200);
  ASSERT_EQ(db.item_bound(), kRandomItems);
  const std::vector<uint64_t> ids = RandomPrimaryIds(&rng, db.size());
  std::vector<DrugAdrRule> rules(4);
  rules[0].drugs = {0, kRandomItems};
  rules[0].adrs = {1};
  rules[1].drugs = {2};
  rules[1].adrs = {kRandomItems + 1};
  rules[2].drugs = {1'000'000};
  rules[2].adrs = {3};
  rules[3].drugs = {0, 2};  // in bound, between the absent ones
  rules[3].adrs = {3};
  ExpectListsMatchReference(db, ids, rules);
  std::vector<const DrugAdrRule*> pointers;
  for (const DrugAdrRule& rule : rules) pointers.push_back(&rule);
  const auto lists = SupportingReportLists(db, ids, pointers);
  EXPECT_TRUE(lists[0].empty());
  EXPECT_TRUE(lists[1].empty());
  EXPECT_TRUE(lists[2].empty());
  EXPECT_FALSE(lists[3].empty());
}

TEST(SupportingReportListsTest, DuplicateTargetsGetEqualLists) {
  maras::Rng rng(11);
  const mining::TransactionDatabase db = RandomDatabase(&rng, 130);
  const std::vector<uint64_t> ids = RandomPrimaryIds(&rng, db.size());
  DrugAdrRule rule;
  rule.drugs = {1, 4};
  rule.adrs = {7};
  DrugAdrRule both_sides;  // one item on both sides of the rule
  both_sides.drugs = {5, 8};
  both_sides.adrs = {8};
  const std::vector<DrugAdrRule> rules = {rule, both_sides, rule, both_sides};
  ExpectListsMatchReference(db, ids, rules);
  // The same rule object twice.
  const DrugAdrRule* const pointers[] = {&rule, &rule};
  const auto lists = SupportingReportLists(db, ids, pointers);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_FALSE(lists[0].empty());
  EXPECT_EQ(lists[0], lists[1]);
}

TEST(SupportingReportListsTest, EmptyRuleListAndEmptyItemset) {
  maras::Rng rng(13);
  const mining::TransactionDatabase db = RandomDatabase(&rng, 70);
  const std::vector<uint64_t> ids = RandomPrimaryIds(&rng, db.size());
  EXPECT_TRUE(SupportingReportLists(db, ids, {}).empty());
  // A rule with no items is contained in every transaction.
  const DrugAdrRule nothing;
  ExpectListsMatchReference(db, ids, {nothing});
  EXPECT_EQ(SupportingReports(db, ids, nothing), ids);
}

}  // namespace
}  // namespace maras::core
