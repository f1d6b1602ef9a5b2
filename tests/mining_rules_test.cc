#include "mining/rules.h"

#include <gtest/gtest.h>

#include "mining/fpgrowth.h"
#include "mining/measures.h"
#include "mining/transaction_db.h"
#include "tests/oracles/partition_rules.h"
#include "util/run_context.h"

namespace maras::mining {
namespace {

FrequentItemsetResult MineAll(const TransactionDatabase& db,
                              size_t min_support) {
  auto result = FpGrowth(MiningOptions{.min_support = min_support}).Mine(db);
  EXPECT_TRUE(result.ok());
  return *std::move(result);
}

RuleSpaceCount Count(const FrequentItemsetResult& frequent,
                     double min_confidence) {
  auto count = CountAllPartitionRules(frequent, min_confidence, RunContext{});
  EXPECT_TRUE(count.ok());
  return *count;
}

TransactionDatabase SmallDb() {
  TransactionDatabase db;
  db.Add({0, 1, 2});
  db.Add({0, 1, 2});
  db.Add({0, 1});
  db.Add({2, 3});
  db.Add({0, 3});
  return db;
}

TEST(RuleCountTest, NoConfidenceThresholdCountsAllBipartitions) {
  TransactionDatabase db = SmallDb();
  auto frequent = MineAll(db, 1);
  RuleSpaceCount count = Count(frequent, 0.0);
  // Sum over itemsets of size k >= 2 of 2^k − 2, computed independently.
  uint64_t expected = 0;
  for (const auto& fi : frequent.itemsets()) {
    if (fi.items.size() >= 2) {
      expected += (1ull << fi.items.size()) - 2;
    }
  }
  EXPECT_EQ(count.total_rules, expected);
  EXPECT_GT(count.total_rules, 0u);
}

TEST(RuleCountTest, SingleReportGeneratesNineDrugAdrStyleRules) {
  // Paper Section 3.3: one report {d1, d2, a1, a2} yields (2^2−1)(2^2−1)=9
  // drug-ADR rules; total bipartition rules are 2^4−2 = 14.
  TransactionDatabase db;
  db.Add({0, 1, 2, 3});
  auto frequent = MineAll(db, 1);
  RuleSpaceCount count = Count(frequent, 0.0);
  // All subsets of the single transaction are frequent; sum over all of them.
  uint64_t expected = 0;
  for (const auto& fi : frequent.itemsets()) {
    if (fi.items.size() >= 2) expected += (1ull << fi.items.size()) - 2;
  }
  EXPECT_EQ(count.total_rules, expected);
  EXPECT_EQ(count.itemsets_considered, 11u);  // C(4,2)+C(4,3)+C(4,4)
}

TEST(RuleCountTest, ConfidenceThresholdPrunes) {
  TransactionDatabase db = SmallDb();
  auto frequent = MineAll(db, 1);
  uint64_t all = Count(frequent, 0.0).total_rules;
  uint64_t strict = Count(frequent, 0.9).total_rules;
  EXPECT_LT(strict, all);
}

TEST(RuleGenTest, GeneratedRulesHaveCorrectMeasures) {
  TransactionDatabase db = SmallDb();
  auto frequent = MineAll(db, 1);
  auto rules = GenerateAllPartitionRules(frequent, 0.0, db.size(), 100000);
  EXPECT_EQ(rules.size(), Count(frequent, 0.0).total_rules);
  for (const auto& rule : rules) {
    Itemset whole = Union(rule.antecedent, rule.consequent);
    EXPECT_EQ(rule.support, db.Support(whole));
    EXPECT_EQ(rule.antecedent_support, db.Support(rule.antecedent));
    EXPECT_DOUBLE_EQ(rule.confidence,
                     Confidence(rule.support, rule.antecedent_support));
    EXPECT_DOUBLE_EQ(
        rule.lift, Lift(rule.support, rule.antecedent_support,
                        rule.consequent_support, db.size()));
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
    EXPECT_TRUE(Intersect(rule.antecedent, rule.consequent).empty());
  }
}

TEST(RuleGenTest, MinConfidenceRespected) {
  TransactionDatabase db = SmallDb();
  auto frequent = MineAll(db, 1);
  auto rules = GenerateAllPartitionRules(frequent, 0.75, db.size(), 100000);
  for (const auto& rule : rules) {
    EXPECT_GE(rule.confidence, 0.75);
  }
}

TEST(RuleGenTest, MaxRulesCapHonored) {
  TransactionDatabase db = SmallDb();
  auto frequent = MineAll(db, 1);
  auto rules = GenerateAllPartitionRules(frequent, 0.0, db.size(), 5);
  EXPECT_LE(rules.size(), 5u);
}

}  // namespace
}  // namespace maras::mining
