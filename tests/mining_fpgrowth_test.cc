#include "mining/fpgrowth.h"

#include <gtest/gtest.h>

#include "mining/fptree.h"
#include "tests/oracles/apriori.h"
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

TEST(FpTreeTest, BuildCountsItems) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({1, 2, 3});
  db.Add({1});
  auto tree = FpTree::Build(db, 1);
  EXPECT_EQ(tree.ItemCount(1), 3u);
  EXPECT_EQ(tree.ItemCount(2), 2u);
  EXPECT_EQ(tree.ItemCount(3), 1u);
}

TEST(FpTreeTest, InfrequentItemsExcluded) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({1, 3});
  auto tree = FpTree::Build(db, 2);
  EXPECT_EQ(tree.ItemCount(1), 2u);
  EXPECT_EQ(tree.ItemCount(2), 0u);
  EXPECT_EQ(tree.ItemCount(3), 0u);
}

TEST(FpTreeTest, PrefixSharingCompressesNodes) {
  TransactionDatabase db;
  for (int i = 0; i < 10; ++i) db.Add({1, 2, 3});
  auto tree = FpTree::Build(db, 1);
  // Root + one node per item: identical transactions share one path.
  EXPECT_EQ(tree.node_count(), 4u);
}

TEST(FpTreeTest, SinglePathDetection) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({1, 3});
  auto tree = FpTree::Build(db, 1);
  // The shared item 1 is one node, and the path forks below it.
  const FpTree::NodeIndex shared = tree.first_child(tree.root());
  ASSERT_NE(shared, FpTree::kNoNode);
  EXPECT_EQ(tree.next_sibling(shared), FpTree::kNoNode);
  EXPECT_EQ(tree.item(shared), 1u);
  const FpTree::NodeIndex fork = tree.first_child(shared);
  ASSERT_NE(fork, FpTree::kNoNode);
  EXPECT_NE(tree.next_sibling(fork), FpTree::kNoNode);
}

TEST(FpTreeTest, SinglePathItemsInOrder) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2});
  db.Add({1});
  auto tree = FpTree::Build(db, 1);
  // A single chain from the root: every node has at most one child.
  std::vector<std::pair<ItemId, size_t>> items;
  for (FpTree::NodeIndex node = tree.first_child(tree.root());
       node != FpTree::kNoNode; node = tree.first_child(node)) {
    EXPECT_EQ(tree.next_sibling(node), FpTree::kNoNode);
    items.emplace_back(tree.item(node), tree.count(node));
  }
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<ItemId, size_t>{1, 3}));
  EXPECT_EQ(items[1], (std::pair<ItemId, size_t>{2, 2}));
  EXPECT_EQ(items[2], (std::pair<ItemId, size_t>{3, 1}));
}

TEST(FpTreeTest, ConditionalPatternBase) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 3});
  db.Add({2, 3});
  auto tree = FpTree::Build(db, 1);
  // Paths are frequency-ordered: item 3 (support 3) sits at the top, so its
  // pattern base is empty; item 2 (support 2, highest id) is deepest. The
  // miner reads a base by walking parent links up from each chain node.
  for (FpTree::NodeIndex node = tree.HeaderChain(3); node != FpTree::kNoNode;
       node = tree.next_same_item(node)) {
    EXPECT_EQ(tree.parent(node), tree.root());
  }
  size_t paths = 0;
  size_t total = 0;
  for (FpTree::NodeIndex node = tree.HeaderChain(2); node != FpTree::kNoNode;
       node = tree.next_same_item(node)) {
    ASSERT_NE(tree.parent(node), tree.root());
    FpTree::NodeIndex top = tree.parent(node);
    while (tree.parent(top) != tree.root()) top = tree.parent(top);
    EXPECT_EQ(tree.item(top), 3u);  // every prefix starts at the root
    ++paths;
    total += tree.count(node);
  }
  EXPECT_EQ(paths, 2u);
  EXPECT_EQ(total, 2u);
}

TEST(FpTreeTest, HeaderChainCoversAllOccurrences) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({2, 3});
  db.Add({2});
  auto tree = FpTree::Build(db, 1);
  size_t chain_total = 0;
  for (FpTree::NodeIndex node = tree.HeaderChain(2); node != FpTree::kNoNode;
       node = tree.next_same_item(node)) {
    chain_total += tree.count(node);
  }
  EXPECT_EQ(chain_total, 3u);
}

TEST(FpGrowthTest, MatchesAprioriOnRandomDatabases) {
  maras::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    TransactionDatabase db = RandomDb(&rng, 80, 10, 6);
    size_t min_support = 2 + rng.Uniform(5);
    MiningOptions options{.min_support = min_support};
    auto fp = FpGrowth(options).Mine(db);
    auto ap = Apriori(options).Mine(db);
    ASSERT_TRUE(fp.ok());
    ASSERT_TRUE(ap.ok());
    ASSERT_EQ(fp->size(), ap->size()) << "trial " << trial;
    // Canonical sort makes the results directly comparable.
    for (size_t i = 0; i < fp->size(); ++i) {
      EXPECT_EQ(fp->itemsets()[i].items, ap->itemsets()[i].items);
      EXPECT_EQ(fp->itemsets()[i].support, ap->itemsets()[i].support);
    }
  }
}

TEST(FpGrowthTest, MatchesAprioriWithSizeCap) {
  maras::Rng rng(77);
  TransactionDatabase db = RandomDb(&rng, 100, 12, 7);
  MiningOptions options{.min_support = 3, .max_itemset_size = 3};
  auto fp = FpGrowth(options).Mine(db);
  auto ap = Apriori(options).Mine(db);
  ASSERT_TRUE(fp.ok());
  ASSERT_TRUE(ap.ok());
  ASSERT_EQ(fp->size(), ap->size());
  for (size_t i = 0; i < fp->size(); ++i) {
    EXPECT_EQ(fp->itemsets()[i].items, ap->itemsets()[i].items);
    EXPECT_LE(fp->itemsets()[i].items.size(), 3u);
  }
}

TEST(FpGrowthTest, MinSupportZeroRejected) {
  FpGrowth miner(MiningOptions{.min_support = 0});
  TransactionDatabase db;
  db.Add({1});
  EXPECT_TRUE(miner.Mine(db).status().IsInvalidArgument());
}

TEST(FpGrowthTest, EmptyDatabase) {
  FpGrowth miner(MiningOptions{.min_support = 1});
  TransactionDatabase db;
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(FpGrowthTest, SupportsVerifiedAgainstDatabase) {
  maras::Rng rng(5150);
  TransactionDatabase db = RandomDb(&rng, 120, 14, 6);
  FpGrowth miner(MiningOptions{.min_support = 4});
  auto result = miner.Mine(db);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
  for (const auto& fi : result->itemsets()) {
    EXPECT_EQ(db.Support(fi.items), fi.support) << ToString(fi.items);
    EXPECT_GE(fi.support, 4u);
  }
}

// Parameterized sweep: the two miners agree across support thresholds.
class MinerEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MinerEquivalenceTest, AprioriAndFpGrowthAgree) {
  maras::Rng rng(999);
  TransactionDatabase db = RandomDb(&rng, 150, 12, 8);
  MiningOptions options{.min_support = GetParam()};
  auto fp = FpGrowth(options).Mine(db);
  auto ap = Apriori(options).Mine(db);
  ASSERT_TRUE(fp.ok());
  ASSERT_TRUE(ap.ok());
  ASSERT_EQ(fp->size(), ap->size());
  for (size_t i = 0; i < fp->size(); ++i) {
    EXPECT_EQ(fp->itemsets()[i].items, ap->itemsets()[i].items);
    EXPECT_EQ(fp->itemsets()[i].support, ap->itemsets()[i].support);
  }
}

INSTANTIATE_TEST_SUITE_P(SupportSweep, MinerEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

}  // namespace
}  // namespace maras::mining
