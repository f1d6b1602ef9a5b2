// Invariant tests for the flat structure-of-arrays FP-tree: arena
// compactness (every node reachable, exactly once, through the
// child/sibling links), agreement between the dense header tables and the
// tree structure, and equivalence of node counts, per-item counts, header
// chains and single-path shape against an independent pointer-based
// reference tree that reimplements the classic layout the arena replaced.
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mining/fptree.h"
#include "mining/transaction_db.h"
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

// Pointer-per-node reference FP-tree with the semantics the arena version
// replaced: heap node per tree position, child list in insertion order,
// header chains in node-creation order. Deliberately naive — it exists to
// disagree loudly if the flat layout ever drifts.
struct RefNode {
  ItemId item = 0;
  size_t count = 0;
  RefNode* parent = nullptr;
  std::vector<std::unique_ptr<RefNode>> children;  // insertion order
};

struct RefTree {
  RefNode root;
  std::map<ItemId, std::vector<const RefNode*>> headers;  // creation order
  std::map<ItemId, size_t> item_counts;
  size_t node_count = 1;  // root included, matching FpTree::node_count()

  void Insert(const std::vector<ItemId>& path, size_t count) {
    RefNode* node = &root;
    for (ItemId item : path) {
      RefNode* child = nullptr;
      for (auto& c : node->children) {
        if (c->item == item) {
          child = c.get();
          break;
        }
      }
      if (child == nullptr) {
        auto fresh = std::make_unique<RefNode>();
        fresh->item = item;
        fresh->parent = node;
        child = fresh.get();
        node->children.push_back(std::move(fresh));
        headers[item].push_back(child);
        ++node_count;
      }
      child->count += count;
      item_counts[item] += count;
      node = child;
    }
  }

  static RefTree Build(const TransactionDatabase& db, size_t min_support) {
    RefTree tree;
    std::map<ItemId, size_t> supports;
    for (const Itemset& t : db.transactions()) {
      for (ItemId item : t) ++supports[item];
    }
    auto order = [&supports](ItemId a, ItemId b) {
      const size_t sa = supports.at(a);
      const size_t sb = supports.at(b);
      if (sa != sb) return sa > sb;
      return a < b;
    };
    for (const Itemset& t : db.transactions()) {
      std::vector<ItemId> path;
      for (ItemId item : t) {
        if (supports.at(item) >= min_support) path.push_back(item);
      }
      if (path.empty()) continue;
      std::sort(path.begin(), path.end(), order);
      tree.Insert(path, 1);
    }
    return tree;
  }

  bool IsSinglePath() const {
    const RefNode* node = &root;
    while (!node->children.empty()) {
      if (node->children.size() > 1) return false;
      node = node->children.front().get();
    }
    return true;
  }

  std::vector<std::pair<ItemId, size_t>> SinglePathItems() const {
    std::vector<std::pair<ItemId, size_t>> items;
    const RefNode* node = &root;
    while (!node->children.empty()) {
      node = node->children.front().get();
      items.emplace_back(node->item, node->count);
    }
    return items;
  }

};

// The flat tree's single-path view, read through the child/sibling links
// FP-Growth walks: true when no node has a second child.
bool IsSinglePath(const FpTree& tree) {
  for (FpTree::NodeIndex node = tree.first_child(tree.root());
       node != FpTree::kNoNode; node = tree.first_child(node)) {
    if (tree.next_sibling(node) != FpTree::kNoNode) return false;
  }
  return true;
}

// The (item, count) chain from the root's first child down, root-side
// first; the whole tree when IsSinglePath(tree).
std::vector<std::pair<ItemId, size_t>> SinglePathItems(const FpTree& tree) {
  std::vector<std::pair<ItemId, size_t>> items;
  for (FpTree::NodeIndex node = tree.first_child(tree.root());
       node != FpTree::kNoNode; node = tree.first_child(node)) {
    items.emplace_back(tree.item(node), tree.count(node));
  }
  return items;
}

// Walks the child/sibling links from the root and asserts the arena is
// compact: every index in [0, node_count) is reached exactly once, no link
// points outside the arena, and every non-root node's parent link matches
// the traversal that discovered it.
void CheckArenaCompact(const FpTree& tree) {
  const size_t n = tree.node_count();
  std::vector<int> visits(n, 0);
  std::vector<FpTree::NodeIndex> stack = {tree.root()};
  while (!stack.empty()) {
    const FpTree::NodeIndex node = stack.back();
    stack.pop_back();
    ASSERT_LT(node, n) << "link points outside the arena";
    ++visits[node];
    for (FpTree::NodeIndex child = tree.first_child(node);
         child != FpTree::kNoNode; child = tree.next_sibling(child)) {
      ASSERT_LT(child, n);
      EXPECT_EQ(tree.parent(child), node);
      stack.push_back(child);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i], 1) << "node " << i
                            << " not reached exactly once from the root";
  }
}

// The dense header tables must agree with the structural tree: per item,
// the header chain visits exactly the nodes carrying that item, in
// ascending arena order (chains append at creation, creation indices grow),
// and their counts sum to the dense ItemCount.
void CheckHeadersAgree(const FpTree& tree) {
  std::map<ItemId, size_t> chain_counts;
  std::map<ItemId, size_t> chain_lengths;
  for (size_t raw = 0; raw < tree.item_table_size(); ++raw) {
    const ItemId item = static_cast<ItemId>(raw);
    FpTree::NodeIndex prev = FpTree::kNoNode;
    for (FpTree::NodeIndex node = tree.HeaderChain(item);
         node != FpTree::kNoNode; node = tree.next_same_item(node)) {
      EXPECT_EQ(tree.item(node), item);
      if (prev != FpTree::kNoNode) {
        EXPECT_LT(prev, node) << "header chain out of creation order";
      }
      prev = node;
      chain_counts[item] += tree.count(node);
      ++chain_lengths[item];
    }
    EXPECT_EQ(chain_counts[item], tree.ItemCount(item));
  }
  // Chains jointly cover the whole arena: Σ chain lengths == non-root nodes.
  size_t total_chain_nodes = 0;
  for (const auto& [item, len] : chain_lengths) total_chain_nodes += len;
  EXPECT_EQ(total_chain_nodes, tree.node_count() - 1);
}

TEST(FpTreeLayoutTest, ArenaCompactOnHandBuiltTree) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2, 4});
  db.Add({2, 5});
  db.Add({1});
  const FpTree tree = FpTree::Build(db, 1);
  CheckArenaCompact(tree);
  CheckHeadersAgree(tree);
}

TEST(FpTreeLayoutTest, ArenaCompactAfterClearAndReuse) {
  TransactionDatabase db1;
  db1.Add({1, 2, 3});
  db1.Add({4, 5, 6});
  FpTree tree = FpTree::Build(db1, 1);
  const size_t first_nodes = tree.node_count();
  EXPECT_EQ(first_nodes, 7u);
  tree.Clear();
  EXPECT_EQ(tree.node_count(), 1u);  // root survives
  // Rebuild a smaller tree into the recycled arena: stale header entries
  // and item counts from the first build must be gone.
  const std::vector<ItemId> path = {7, 8};
  tree.Insert(path.data(), path.size(), 3);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.ItemCount(7), 3u);
  EXPECT_EQ(tree.ItemCount(8), 3u);
  for (ItemId stale : {1u, 2u, 3u, 4u, 5u, 6u}) {
    EXPECT_EQ(tree.ItemCount(stale), 0u);
    EXPECT_EQ(tree.HeaderChain(stale), FpTree::kNoNode);
  }
  CheckArenaCompact(tree);
  CheckHeadersAgree(tree);
}

TEST(FpTreeLayoutTest, RandomizedInvariantsMultiSeed) {
  for (uint64_t seed : {11u, 42u, 99u, 1234u, 55555u}) {
    maras::Rng rng(seed);
    TransactionDatabase db = RandomDb(&rng, 120, 16, 7);
    for (size_t min_support : {1u, 2u, 5u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " min_support=" + std::to_string(min_support));
      const FpTree tree = FpTree::Build(db, min_support);
      CheckArenaCompact(tree);
      CheckHeadersAgree(tree);
    }
  }
}

TEST(FpTreeLayoutTest, MatchesPointerReferenceMultiSeed) {
  for (uint64_t seed : {3u, 17u, 77u, 2025u}) {
    maras::Rng rng(seed);
    TransactionDatabase db = RandomDb(&rng, 100, 12, 6);
    for (size_t min_support : {1u, 3u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " min_support=" + std::to_string(min_support));
      const FpTree tree = FpTree::Build(db, min_support);
      const RefTree ref = RefTree::Build(db, min_support);
      EXPECT_EQ(tree.node_count(), ref.node_count);
      for (size_t raw = 0; raw < tree.item_table_size(); ++raw) {
        const ItemId item = static_cast<ItemId>(raw);
        const auto it = ref.item_counts.find(item);
        const size_t want = it == ref.item_counts.end() ? 0 : it->second;
        EXPECT_EQ(tree.ItemCount(item), want) << "item " << item;
        // Header chains line up node for node, creation order on both sides.
        const auto hit = ref.headers.find(item);
        size_t ref_len = hit == ref.headers.end() ? 0 : hit->second.size();
        size_t i = 0;
        for (FpTree::NodeIndex node = tree.HeaderChain(item);
             node != FpTree::kNoNode; node = tree.next_same_item(node), ++i) {
          ASSERT_LT(i, ref_len);
          EXPECT_EQ(tree.count(node), hit->second[i]->count);
        }
        EXPECT_EQ(i, ref_len);
      }
      EXPECT_EQ(IsSinglePath(tree), ref.IsSinglePath());
      if (IsSinglePath(tree)) {
        EXPECT_EQ(SinglePathItems(tree), ref.SinglePathItems());
      }
    }
  }
}

TEST(FpTreeLayoutTest, SinglePathEquivalenceOnChains) {
  // Databases engineered to sit right at the single-path boundary.
  {
    TransactionDatabase db;
    db.Add({1, 2, 3, 4});
    db.Add({1, 2, 3});
    db.Add({1, 2});
    db.Add({1});
    const FpTree tree = FpTree::Build(db, 1);
    const RefTree ref = RefTree::Build(db, 1);
    ASSERT_TRUE(IsSinglePath(tree));
    ASSERT_TRUE(ref.IsSinglePath());
    EXPECT_EQ(SinglePathItems(tree), ref.SinglePathItems());
  }
  {
    // One diverging leaf breaks the path on both implementations.
    TransactionDatabase db;
    db.Add({1, 2, 3});
    db.Add({1, 2, 4});
    const FpTree tree = FpTree::Build(db, 1);
    const RefTree ref = RefTree::Build(db, 1);
    EXPECT_FALSE(IsSinglePath(tree));
    EXPECT_FALSE(ref.IsSinglePath());
  }
  {
    // Empty database: the bare root is a single (empty) path.
    TransactionDatabase db;
    const FpTree tree = FpTree::Build(db, 1);
    EXPECT_TRUE(IsSinglePath(tree));
    EXPECT_TRUE(SinglePathItems(tree).empty());
    EXPECT_EQ(tree.node_count(), 1u);
  }
}

}  // namespace
}  // namespace maras::mining
