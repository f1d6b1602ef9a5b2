#include "tests/oracles/apriori.h"

#include <gtest/gtest.h>

#include "tests/oracles/brute_force.h"
#include "util/random.h"

namespace maras::mining {
namespace {

TransactionDatabase TextbookDb() {
  // Classic example database.
  TransactionDatabase db;
  db.Add({0, 1, 4});
  db.Add({1, 3});
  db.Add({1, 2});
  db.Add({0, 1, 3});
  db.Add({0, 2});
  db.Add({1, 2});
  db.Add({0, 2});
  db.Add({0, 1, 2, 4});
  db.Add({0, 1, 2});
  return db;
}

TEST(AprioriTest, TextbookExample) {
  Apriori miner(MiningOptions{.min_support = 2});
  auto result = miner.Mine(TextbookDb());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SupportOf({0}), 6u);
  EXPECT_EQ(result->SupportOf({1}), 7u);
  EXPECT_EQ(result->SupportOf({0, 1}), 4u);
  EXPECT_EQ(result->SupportOf({0, 1, 2}), 2u);
  EXPECT_EQ(result->SupportOf({0, 4}), 2u);
  EXPECT_EQ(result->SupportOf({3}), 2u);
  EXPECT_EQ(result->SupportOf({1, 3}), 2u);  // rows {1,3} and {0,1,3}
  // Items 2 and 3 never co-occur.
  EXPECT_EQ(result->SupportOf({2, 3}), 0u);
  EXPECT_EQ(result->SupportOf({2, 3}), 0u);
}

TEST(AprioriTest, MatchesBruteForce) {
  maras::Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    TransactionDatabase db;
    for (int t = 0; t < 60; ++t) {
      Itemset txn;
      for (size_t i = 1 + rng.Uniform(5); i > 0; --i) {
        txn.push_back(static_cast<ItemId>(rng.Uniform(8)));
      }
      db.Add(std::move(txn));
    }
    const MiningOptions options{.min_support = 2 + rng.Uniform(4)};
    auto result = Apriori(options).Mine(db);
    ASSERT_TRUE(result.ok());
    const FrequentItemsetResult expected = BruteForceMine(db, options, 8);
    ASSERT_EQ(result->size(), expected.size()) << "trial " << trial;
    for (const FrequentItemset& fi : expected.itemsets()) {
      EXPECT_EQ(result->SupportOf(fi.items), fi.support) << ToString(fi.items);
    }
  }
}

TEST(AprioriTest, MinSupportOneKeepsEverything) {
  TransactionDatabase db;
  db.Add({0, 1});
  db.Add({2});
  Apriori miner(MiningOptions{.min_support = 1});
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // {0},{1},{2},{0,1}
}

TEST(AprioriTest, MinSupportZeroRejected) {
  Apriori miner(MiningOptions{.min_support = 0});
  TransactionDatabase db;
  db.Add({1});
  EXPECT_TRUE(miner.Mine(db).status().IsInvalidArgument());
}

TEST(AprioriTest, MaxItemsetSizeCapsDepth) {
  TransactionDatabase db;
  for (int i = 0; i < 5; ++i) db.Add({0, 1, 2, 3});
  Apriori miner(MiningOptions{.min_support = 2, .max_itemset_size = 2});
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  for (const auto& fi : result->itemsets()) {
    EXPECT_LE(fi.items.size(), 2u);
  }
  EXPECT_EQ(result->size(), 4u + 6u);  // all singletons + all pairs
}

TEST(AprioriTest, EmptyDatabaseYieldsNothing) {
  Apriori miner(MiningOptions{.min_support = 1});
  TransactionDatabase db;
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(AprioriTest, SupportIsAntiMonotone) {
  TransactionDatabase db = TextbookDb();
  Apriori miner(MiningOptions{.min_support = 2});
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  for (const auto& fi : result->itemsets()) {
    if (fi.items.size() < 2) continue;
    ForEachProperSubset(fi.items, [&](const Itemset& subset) {
      size_t sub_support = result->SupportOf(subset);
      EXPECT_GE(sub_support, fi.support)
          << ToString(subset) << " ⊂ " << ToString(fi.items);
    });
  }
}

}  // namespace
}  // namespace maras::mining
