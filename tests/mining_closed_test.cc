#include "mining/closed_itemsets.h"

#include <gtest/gtest.h>

#include "mining/fpgrowth.h"
#include "util/random.h"

namespace maras::mining {
namespace {

TransactionDatabase PaperStyleDb() {
  // Two identical report shapes plus noise: {1,2,3} appears 3 times,
  // {1,2} never without 3 -> {1,2} is NOT closed, {1,2,3} is.
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2, 3});
  db.Add({1, 2, 3, 4});
  db.Add({1, 5});
  db.Add({2, 5});
  return db;
}

TEST(ClosedTest, FilterRemovesNonClosed) {
  auto all = FpGrowth(MiningOptions{.min_support = 1}).Mine(PaperStyleDb());
  ASSERT_TRUE(all.ok());
  FrequentItemsetResult closed = FilterClosed(*all);
  // {1,2} has the same support (3) as {1,2,3} -> non-closed, dropped.
  EXPECT_GT(all->SupportOf({1, 2}), 0u);
  EXPECT_EQ(closed.SupportOf({1, 2}), 0u);
  EXPECT_GT(closed.SupportOf({1, 2, 3}), 0u);
  // {1} has support 4 > supp({1,2,3}) -> closed.
  EXPECT_GT(closed.SupportOf({1}), 0u);
}

TEST(ClosedTest, ClosedFamilyPreservesSupportInformation) {
  // Every frequent itemset's support must be recoverable as the max support
  // of a closed superset — the compression property of closed itemsets.
  maras::Rng rng(7);
  TransactionDatabase db;
  for (int t = 0; t < 100; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng.Uniform(5); i > 0; --i) {
      txn.push_back(static_cast<ItemId>(rng.Uniform(9)));
    }
    db.Add(std::move(txn));
  }
  auto all = FpGrowth(MiningOptions{.min_support = 2}).Mine(db);
  ASSERT_TRUE(all.ok());
  FrequentItemsetResult closed = FilterClosed(*all);
  for (const auto& fi : all->itemsets()) {
    size_t best = 0;
    for (const auto& cl : closed.itemsets()) {
      if (cl.items.size() >= fi.items.size() &&
          IsSubset(fi.items, cl.items)) {
        best = std::max(best, cl.support);
      }
    }
    EXPECT_EQ(best, fi.support) << ToString(fi.items);
  }
}

TEST(ClosedTest, AgreesWithDirectDatabaseCheck) {
  maras::Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    TransactionDatabase db;
    for (int t = 0; t < 80; ++t) {
      Itemset txn;
      for (size_t i = 1 + rng.Uniform(5); i > 0; --i) {
        txn.push_back(static_cast<ItemId>(rng.Uniform(8)));
      }
      db.Add(std::move(txn));
    }
    auto all = FpGrowth(MiningOptions{.min_support = 2}).Mine(db);
    ASSERT_TRUE(all.ok());
    FrequentItemsetResult closed = FilterClosed(*all);
    for (const auto& fi : all->itemsets()) {
      bool in_family = closed.SupportOf(fi.items) > 0;
      bool in_db = IsClosedInDatabase(db, fi.items);
      EXPECT_EQ(in_family, in_db) << ToString(fi.items);
    }
  }
}

TEST(ClosedTest, ClosureOfBasics) {
  TransactionDatabase db = PaperStyleDb();
  EXPECT_EQ(ClosureOf(db, {1, 2}), (Itemset{1, 2, 3}));
  EXPECT_EQ(ClosureOf(db, {1, 2, 3}), (Itemset{1, 2, 3}));
  EXPECT_EQ(ClosureOf(db, {4}), (Itemset{1, 2, 3, 4}));
  EXPECT_TRUE(ClosureOf(db, {99}).empty());
}

TEST(ClosedTest, ClosureIsIdempotent) {
  TransactionDatabase db = PaperStyleDb();
  for (const Itemset& s :
       {Itemset{1}, Itemset{1, 2}, Itemset{5}, Itemset{2, 5}}) {
    Itemset once = ClosureOf(db, s);
    ASSERT_FALSE(once.empty());
    EXPECT_EQ(ClosureOf(db, once), once) << ToString(s);
  }
}

TEST(ClosedTest, MineClosedConvenience) {
  auto closed =
      MineClosed(PaperStyleDb(), MiningOptions{.min_support = 1});
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->SupportOf({1, 2}), 0u);
  EXPECT_GT(closed->SupportOf({1, 2, 3}), 0u);
  // Every reported closed itemset really is closed in the database.
  for (const auto& fi : closed->itemsets()) {
    EXPECT_TRUE(IsClosedInDatabase(PaperStyleDb(), fi.items))
        << ToString(fi.items);
  }
}

TEST(ClosedTest, CompressionNeverIncreasesCount) {
  maras::Rng rng(67);
  TransactionDatabase db;
  for (int t = 0; t < 60; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng.Uniform(6); i > 0; --i) {
      txn.push_back(static_cast<ItemId>(rng.Uniform(10)));
    }
    db.Add(std::move(txn));
  }
  auto all = FpGrowth(MiningOptions{.min_support = 1}).Mine(db);
  ASSERT_TRUE(all.ok());
  FrequentItemsetResult closed = FilterClosed(*all);
  EXPECT_LE(closed.size(), all->size());
  EXPECT_GT(closed.size(), 0u);
}

}  // namespace
}  // namespace maras::mining
