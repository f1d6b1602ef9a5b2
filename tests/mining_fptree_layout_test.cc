// Invariant tests for the flat structure-of-arrays FP-tree: arena
// compactness (every node reachable, exactly once, through the
// child/sibling links), agreement between the dense header tables and the
// tree structure, depth-first numbering of the sorted-path build, and
// structural equality (every root path's count, per-item counts, header
// chain counts, single-path shape) with an independent pointer-based
// reference tree that inserts one transaction at a time.
#include <algorithm>
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

// Pointer-per-node reference FP-tree built the classic way: one insert per
// transaction in database order, a heap node per tree position, a child
// list searched item by item. Deliberately naive — it exists to disagree
// loudly if the flat layout or the sorted-path build ever drifts. Its node
// and header-chain order is insertion order, which FpTree::Build does not
// keep, so comparisons are structural.
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

  // Count of every node, keyed by the item path from the root to it.
  std::map<std::vector<ItemId>, size_t> PathCounts() const {
    std::map<std::vector<ItemId>, size_t> counts;
    std::vector<ItemId> path;
    AddPathCounts(root, &path, &counts);
    return counts;
  }

  // Per item, the sorted counts of the nodes on its header chain.
  std::map<ItemId, std::vector<size_t>> ChainCounts() const {
    std::map<ItemId, std::vector<size_t>> chains;
    for (const auto& [item, nodes] : headers) {
      for (const RefNode* node : nodes) chains[item].push_back(node->count);
      std::sort(chains[item].begin(), chains[item].end());
    }
    return chains;
  }

 private:
  static void AddPathCounts(const RefNode& node, std::vector<ItemId>* path,
                            std::map<std::vector<ItemId>, size_t>* counts) {
    for (const auto& child : node.children) {
      path->push_back(child->item);
      (*counts)[*path] = child->count;
      AddPathCounts(*child, path, counts);
      path->pop_back();
    }
  }
};

// The flat tree's counterparts of RefTree::PathCounts and ChainCounts.
std::map<std::vector<ItemId>, size_t> PathCounts(const FpTree& tree) {
  std::map<std::vector<ItemId>, size_t> counts;
  for (FpTree::NodeIndex n = 1; n < tree.node_count(); ++n) {
    std::vector<ItemId> path;
    for (FpTree::NodeIndex up = n; up != tree.root(); up = tree.parent(up)) {
      path.push_back(tree.item(up));
    }
    std::reverse(path.begin(), path.end());
    counts[path] = tree.count(n);
  }
  return counts;
}

std::map<ItemId, std::vector<size_t>> ChainCounts(const FpTree& tree) {
  std::map<ItemId, std::vector<size_t>> chains;
  for (size_t raw = 0; raw < tree.item_table_size(); ++raw) {
    const ItemId item = static_cast<ItemId>(raw);
    for (FpTree::NodeIndex node = tree.HeaderChain(item);
         node != FpTree::kNoNode; node = tree.next_same_item(node)) {
      chains[item].push_back(tree.count(node));
    }
    if (chains.count(item) != 0) {
      std::sort(chains[item].begin(), chains[item].end());
    }
  }
  return chains;
}

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

// FpTree::Build numbers nodes depth-first: a parent precedes its children,
// a first child directly follows its parent, and a node's next sibling
// directly follows its subtree, so indices ascend along every sibling list.
void CheckDepthFirst(const FpTree& tree) {
  const auto n = static_cast<FpTree::NodeIndex>(tree.node_count());
  std::vector<size_t> subtree(n, 1);
  for (FpTree::NodeIndex i = n; i-- > 1;) {
    ASSERT_LT(tree.parent(i), i) << "parent numbered after its child";
    subtree[tree.parent(i)] += subtree[i];
  }
  for (FpTree::NodeIndex node = 0; node < n; ++node) {
    const FpTree::NodeIndex child = tree.first_child(node);
    if (child != FpTree::kNoNode) {
      EXPECT_EQ(child, node + 1);
    }
    const FpTree::NodeIndex sibling = tree.next_sibling(node);
    if (sibling != FpTree::kNoNode) {
      EXPECT_GT(sibling, node) << "sibling list out of index order";
      EXPECT_EQ(sibling, node + subtree[node]);
    }
  }
}

// Builds `db` both ways and checks the flat tree's invariants and its
// structural equality with the reference: the same node set (every root
// path with the same count), the same per-item counts, the same multiset of
// counts along every header chain, and the same single-path view.
void ExpectMatchesReference(const TransactionDatabase& db,
                            size_t min_support) {
  const FpTree tree = FpTree::Build(db, min_support);
  const RefTree ref = RefTree::Build(db, min_support);
  CheckArenaCompact(tree);
  CheckHeadersAgree(tree);
  CheckDepthFirst(tree);
  EXPECT_EQ(tree.node_count(), ref.node_count);
  const auto path_counts = PathCounts(tree);
  EXPECT_EQ(path_counts.size(), tree.node_count() - 1)
      << "two nodes share a root path";
  EXPECT_EQ(path_counts, ref.PathCounts());
  for (size_t raw = 0; raw < tree.item_table_size(); ++raw) {
    const ItemId item = static_cast<ItemId>(raw);
    const auto it = ref.item_counts.find(item);
    const size_t want = it == ref.item_counts.end() ? 0 : it->second;
    EXPECT_EQ(tree.ItemCount(item), want) << "item " << item;
  }
  EXPECT_EQ(ChainCounts(tree), ref.ChainCounts());
  EXPECT_EQ(IsSinglePath(tree), ref.IsSinglePath());
  if (IsSinglePath(tree)) {
    EXPECT_EQ(SinglePathItems(tree), ref.SinglePathItems());
  }
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
      ExpectMatchesReference(db, min_support);
    }
  }
}

TEST(FpTreeLayoutTest, DuplicateTransactionsShareOnePath) {
  TransactionDatabase db;
  for (int i = 0; i < 3; ++i) db.Add({4, 1, 2});
  db.Add({1, 2});
  db.Add({4, 1, 2});
  ExpectMatchesReference(db, 1);
  const FpTree tree = FpTree::Build(db, 1);
  EXPECT_EQ(tree.node_count(), 4u);  // root + one node per item
}

TEST(FpTreeLayoutTest, PathThatIsAPrefixOfAnother) {
  TransactionDatabase db;
  // Supports 1:4, 2:3, 3:2, 5:1, so [1 2 3] is a prefix of [1 2 3 5] and
  // [1] of both; the longer paths come first in the database.
  db.Add({1, 2, 3, 5});
  db.Add({1, 2, 3});
  db.Add({1, 2});
  db.Add({1});
  ExpectMatchesReference(db, 1);
  ExpectMatchesReference(db, 2);
}

TEST(FpTreeLayoutTest, TransactionsThatMinSupportEmpties) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({7});     // 7 and 8 are below support 2: this path is empty
  db.Add({8, 9});  // and this one keeps only 9
  db.Add({1, 2, 9});
  db.Add({1});
  ExpectMatchesReference(db, 2);
  const FpTree tree = FpTree::Build(db, 2);
  EXPECT_EQ(tree.ItemCount(7), 0u);
  EXPECT_EQ(tree.HeaderChain(8), FpTree::kNoNode);
  EXPECT_EQ(tree.ItemCount(9), 2u);
  // Every item falls below a support no item reaches: a bare root.
  const FpTree bare = FpTree::Build(db, 10);
  EXPECT_EQ(bare.node_count(), 1u);
  EXPECT_EQ(bare.first_child(bare.root()), FpTree::kNoNode);
  EXPECT_TRUE(bare.ItemsBySupportAscending().empty());
}

TEST(FpTreeLayoutTest, TiedSupportsOrderByAscendingId) {
  TransactionDatabase db;
  // 3, 5 and 9 all have support 2; a path orders them 3, 5, 9.
  db.Add({9, 5});
  db.Add({5, 3});
  db.Add({3, 9});
  ExpectMatchesReference(db, 1);
  const FpTree tree = FpTree::Build(db, 1);
  const FpTree::NodeIndex first = tree.first_child(tree.root());
  ASSERT_NE(first, FpTree::kNoNode);
  EXPECT_EQ(tree.item(first), 3u);
  EXPECT_EQ(tree.count(first), 2u);
  const FpTree::NodeIndex second = tree.next_sibling(first);
  ASSERT_NE(second, FpTree::kNoNode);
  EXPECT_EQ(tree.item(second), 5u);
  EXPECT_EQ(tree.next_sibling(second), FpTree::kNoNode);
}

TEST(FpTreeLayoutTest, PathsThatTieOnALongCommonPrefix) {
  // Items 0..23 are in every transaction, so every path starts with the
  // same 24 items, more than fit in one 64-bit sort key at any rank width;
  // the paths differ only in random tails drawn from items 24..79.
  maras::Rng rng(8);
  TransactionDatabase db;
  for (int t = 0; t < 150; ++t) {
    Itemset txn;
    for (ItemId core = 0; core < 24; ++core) txn.push_back(core);
    for (size_t i = rng.Uniform(12); i > 0; --i) {
      txn.push_back(static_cast<ItemId>(24 + rng.Uniform(56)));
    }
    db.Add(std::move(txn));
  }
  for (size_t min_support : {1u, 3u}) {
    SCOPED_TRACE("min_support=" + std::to_string(min_support));
    ExpectMatchesReference(db, min_support);
  }
}

TEST(FpTreeLayoutTest, EmptyDatabaseIsABareRoot) {
  TransactionDatabase db;
  ExpectMatchesReference(db, 1);
  const FpTree tree = FpTree::Build(db, 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.item_table_size(), 0u);
  EXPECT_TRUE(tree.ItemsBySupportAscending().empty());
}

TEST(FpTreeLayoutTest, BuildNumbersNodesDepthFirst) {
  for (uint64_t seed : {5u, 31u, 404u}) {
    maras::Rng rng(seed);
    TransactionDatabase db = RandomDb(&rng, 300, 20, 8);
    for (size_t min_support : {1u, 4u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " min_support=" + std::to_string(min_support));
      CheckDepthFirst(FpTree::Build(db, min_support));
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
