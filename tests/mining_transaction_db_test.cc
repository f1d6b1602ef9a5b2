#include "mining/transaction_db.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace maras::mining {
namespace {

TransactionDatabase SmallDb() {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2});
  db.Add({2, 3});
  db.Add({1, 2, 3, 4});
  return db;
}

TEST(TransactionDbTest, SizeAndAccess) {
  TransactionDatabase db = SmallDb();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.transaction(0), (Itemset{1, 2, 3}));
}

TEST(TransactionDbTest, AddNormalizesInput) {
  TransactionDatabase db;
  db.Add({3, 1, 3, 2});
  EXPECT_EQ(db.transaction(0), (Itemset{1, 2, 3}));
}

TEST(TransactionDbTest, ItemSupport) {
  TransactionDatabase db = SmallDb();
  EXPECT_EQ(db.ItemSupport(1), 3u);
  EXPECT_EQ(db.ItemSupport(2), 4u);
  EXPECT_EQ(db.ItemSupport(4), 1u);
  EXPECT_EQ(db.ItemSupport(99), 0u);
}

TEST(TransactionDbTest, ItemsetSupport) {
  TransactionDatabase db = SmallDb();
  EXPECT_EQ(db.Support({1, 2}), 3u);
  EXPECT_EQ(db.Support({2, 3}), 3u);
  EXPECT_EQ(db.Support({1, 2, 3}), 2u);
  EXPECT_EQ(db.Support({1, 4}), 1u);
  EXPECT_EQ(db.Support({4, 5}), 0u);
  EXPECT_EQ(db.Support({}), 4u);  // empty set is in every transaction
}

TEST(TransactionDbTest, ContainingTransactionsSortedAndCorrect) {
  TransactionDatabase db = SmallDb();
  EXPECT_EQ(db.ContainingTransactions({1, 2}),
            (std::vector<TransactionId>{0, 1, 3}));
  EXPECT_EQ(db.ContainingTransactions({4}),
            (std::vector<TransactionId>{3}));
  EXPECT_TRUE(db.ContainingTransactions({9}).empty());
}

TEST(TransactionDbTest, TidListsSorted) {
  TransactionDatabase db = SmallDb();
  const auto& tids = db.TidList(2);
  EXPECT_TRUE(std::is_sorted(tids.begin(), tids.end()));
  EXPECT_EQ(tids.size(), 4u);
  EXPECT_TRUE(db.TidList(1234).empty());
}

TEST(TransactionDbTest, EmptyDatabase) {
  TransactionDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.Support({1}), 0u);
  EXPECT_EQ(db.Support({}), 0u);
}

// Property: Support via tid-list intersection equals a brute-force scan.
TEST(TransactionDbTest, SupportMatchesBruteForceOnRandomData) {
  maras::Rng rng(41);
  TransactionDatabase db;
  for (int t = 0; t < 300; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng.Uniform(6); i > 0; --i) {
      txn.push_back(static_cast<ItemId>(rng.Uniform(15)));
    }
    db.Add(std::move(txn));
  }
  for (int trial = 0; trial < 100; ++trial) {
    Itemset query;
    for (size_t i = 1 + rng.Uniform(3); i > 0; --i) {
      query.push_back(static_cast<ItemId>(rng.Uniform(15)));
    }
    query = MakeItemset(std::move(query));
    size_t brute = 0;
    for (const Itemset& t : db.transactions()) {
      if (IsSubset(query, t)) ++brute;
    }
    EXPECT_EQ(db.Support(query), brute) << ToString(query);
  }
}


TEST(TransactionDbTest, BuildEqualsAddingInOrder) {
  maras::Rng rng(43);
  std::vector<Itemset> transactions;
  for (int t = 0; t < 300; ++t) {
    Itemset txn;  // unsorted, with repeats; some transactions empty
    for (size_t i = rng.Uniform(7); i > 0; --i) {
      txn.push_back(static_cast<ItemId>(rng.Uniform(40)));
    }
    transactions.push_back(std::move(txn));
  }
  TransactionDatabase added;
  for (const Itemset& t : transactions) added.Add(t);
  const TransactionDatabase built =
      TransactionDatabase::Build(std::move(transactions));
  EXPECT_EQ(built.transactions(), added.transactions());
  EXPECT_EQ(built.item_bound(), added.item_bound());
  EXPECT_EQ(built.item_count(), added.item_count());
  EXPECT_EQ(built.total_item_occurrences(), added.total_item_occurrences());
  for (ItemId item = 0; item < 45; ++item) {
    EXPECT_EQ(built.TidList(item), added.TidList(item)) << item;
  }
  EXPECT_TRUE(TransactionDatabase::Build({}).empty());
  EXPECT_EQ(TransactionDatabase::Build({}).item_bound(), 0u);
}

}  // namespace
}  // namespace maras::mining
