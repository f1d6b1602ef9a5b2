// Property tests for the closed-itemset machinery (Definition 3.4.1 and
// Lemma 3.4.2): on random databases, every mined closed itemset must have no
// superset of equal support, the closure operator must behave like a closure
// (extensive, monotone, idempotent), and every rule derived from the closed
// family must have a closed complete itemset — the invariant that lets MARAS
// build its rule space from closed sets without losing associations.

#include <gtest/gtest.h>

#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "mining/rules.h"
#include "tests/oracles/apriori.h"
#include "tests/oracles/partition_rules.h"
#include "util/random.h"

namespace maras::mining {
namespace {

TransactionDatabase RandomDb(maras::Rng* rng, int transactions, int items,
                             int max_len) {
  TransactionDatabase db;
  for (int t = 0; t < transactions; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng->Uniform(static_cast<uint64_t>(max_len)); i > 0;
         --i) {
      txn.push_back(static_cast<ItemId>(rng->Uniform(items)));
    }
    db.Add(std::move(txn));
  }
  return db;
}

class ClosedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosedPropertyTest, NoSupersetOfAClosedItemsetHasEqualSupport) {
  maras::Rng rng(GetParam());
  TransactionDatabase db =
      RandomDb(&rng, static_cast<int>(80 + GetParam() % 40), 10, 6);
  MiningOptions options{.min_support = 2};
  auto all = FpGrowth(options).Mine(db);
  ASSERT_TRUE(all.ok());
  FrequentItemsetResult closed = FilterClosed(*all);
  ASSERT_GT(closed.size(), 0u);
  // Definition 3.4.1, checked pairwise against the *frequent* family (any
  // equal-support superset of a frequent itemset is frequent, so the family
  // is a complete witness set).
  for (const FrequentItemset& c : closed.itemsets()) {
    for (const FrequentItemset& other : all->itemsets()) {
      if (other.items.size() <= c.items.size()) continue;
      if (!IsSubset(c.items, other.items)) continue;
      EXPECT_LT(other.support, c.support)
          << ToString(c.items) << " ⊂ " << ToString(other.items);
    }
    // And against the database directly, which sees supersets beyond the
    // mined family too.
    EXPECT_TRUE(IsClosedInDatabase(db, c.items)) << ToString(c.items);
  }
}

TEST_P(ClosedPropertyTest, ClosureOperatorLaws) {
  maras::Rng rng(GetParam() + 7);
  TransactionDatabase db = RandomDb(&rng, 70, 9, 5);
  auto all = FpGrowth(MiningOptions{.min_support = 1}).Mine(db);
  ASSERT_TRUE(all.ok());
  for (const FrequentItemset& fi : all->itemsets()) {
    Itemset closure = ClosureOf(db, fi.items);
    ASSERT_FALSE(closure.empty()) << ToString(fi.items);
    // Extensive: S ⊆ closure(S); support-preserving; idempotent.
    EXPECT_TRUE(IsSubset(fi.items, closure));
    EXPECT_EQ(db.Support(closure), fi.support);
    EXPECT_EQ(ClosureOf(db, closure), closure);
    // The closure is the smallest closed superset, so it is closed.
    EXPECT_TRUE(IsClosedInDatabase(db, closure));
  }
}

TEST_P(ClosedPropertyTest, RulesFromClosedFamilyHaveClosedCompleteItemsets) {
  maras::Rng rng(GetParam() + 13);
  TransactionDatabase db = RandomDb(&rng, 90, 9, 6);
  MiningOptions options{.min_support = 2};
  auto closed = MineClosed(db, options);
  ASSERT_TRUE(closed.ok());
  std::vector<AssociationRule> rules =
      GenerateAllPartitionRules(*closed, /*min_confidence=*/0.0,
                                db.size(), /*max_rules=*/100000);
  ASSERT_GT(rules.size(), 0u);
  for (const AssociationRule& rule : rules) {
    Itemset full = Union(rule.antecedent, rule.consequent);
    // Lemma 3.4.2: the rule space built on closed itemsets only contains
    // rules whose complete itemset is closed, with exact support.
    EXPECT_TRUE(IsClosedInDatabase(db, full)) << ToString(full);
    EXPECT_EQ(db.Support(full), rule.support) << ToString(full);
    EXPECT_GT(closed->SupportOf(full), 0u) << ToString(full);
  }
}

TEST_P(ClosedPropertyTest, EveryFrequentItemsetHasAClosedRepresentative) {
  // The closed family loses no support information: each frequent itemset's
  // closure is in the closed family with the same support.
  maras::Rng rng(GetParam() + 29);
  TransactionDatabase db = RandomDb(&rng, 80, 8, 5);
  MiningOptions options{.min_support = 2};
  auto all = Apriori(options).Mine(db);
  ASSERT_TRUE(all.ok());
  FrequentItemsetResult closed = FilterClosed(*all);
  for (const FrequentItemset& fi : all->itemsets()) {
    Itemset closure = ClosureOf(db, fi.items);
    EXPECT_GT(closed.SupportOf(closure), 0u) << ToString(fi.items);
    EXPECT_EQ(closed.SupportOf(closure), fi.support) << ToString(fi.items);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace maras::mining
