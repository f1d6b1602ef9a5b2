#ifndef MARAS_MINING_FPTREE_H_
#define MARAS_MINING_FPTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mining/itemset.h"
#include "mining/transaction_db.h"

namespace maras::mining {

// FP-tree (Han et al.): a prefix tree over transactions whose items are
// re-ordered by descending global frequency, with per-item node chains
// (header table) for fast conditional-pattern-base extraction.
//
// Memory layout: a flat structure-of-arrays arena. A node is a 32-bit index
// into six parallel vectors (item, count, parent, next_same_item,
// first_child, next_sibling); node 0 is the root and kNoNode marks absent
// links. Header and per-item count tables are dense vectors indexed directly
// by ItemId. Compared to the previous pointer-per-node layout (one heap
// allocation per node, a std::vector of children per node, three
// unordered_map header tables), a tree build is a handful of bulk
// allocations, a parent walk touches consecutive 4-byte lanes instead of
// scattered 64-byte nodes, and Clear() recycles the whole arena for the
// next conditional tree without freeing anything — the properties the
// FP-Growth hot loop is built around (see DESIGN.md "Mining engine memory
// layout").
class FpTree {
 public:
  using NodeIndex = uint32_t;
  static constexpr NodeIndex kNoNode = 0xFFFFFFFFu;

  FpTree();

  FpTree(const FpTree&) = delete;
  FpTree& operator=(const FpTree&) = delete;
  FpTree(FpTree&&) = default;
  FpTree& operator=(FpTree&&) = default;

  // Builds a tree from a transaction database, keeping only items with
  // support >= min_support and ordering each transaction by descending
  // support (ties by ascending id). Bulk-reserves the node arena and the
  // dense item tables from the database's retained occurrence count, so the
  // build performs O(1) arena allocations.
  static FpTree Build(const TransactionDatabase& db, size_t min_support);

  // Resets to a lone root while keeping every vector's capacity — the arena
  // recycling primitive the miner uses to build conditional trees without
  // per-tree allocations. O(distinct items inserted), not O(table size).
  void Clear();

  // Pre-sizes the node arena / the dense item tables.
  void ReserveNodes(size_t nodes);
  void ReserveItems(size_t item_bound);  // ids in [0, item_bound)

  // Inserts a (frequency-ordered) item path with multiplicity `count`.
  void Insert(const ItemId* path, size_t len, size_t count);

  // Items present in the header table, ordered by ascending support
  // (ties by descending id) — the order FP-Growth consumes them in. The
  // second form reuses the caller's buffer (cleared first).
  std::vector<ItemId> ItemsBySupportAscending() const;
  void ItemsBySupportAscending(std::vector<ItemId>* out) const;

  // Total support of `item` within this tree.
  size_t ItemCount(ItemId item) const;

  // First node of the header chain for `item` (kNoNode when absent).
  NodeIndex HeaderChain(ItemId item) const;

  // Node field accessors. Valid for indices in [0, node_count()).
  ItemId item(NodeIndex n) const { return item_[n]; }
  size_t count(NodeIndex n) const { return count_[n]; }
  NodeIndex parent(NodeIndex n) const { return parent_[n]; }
  NodeIndex next_same_item(NodeIndex n) const { return next_same_item_[n]; }
  NodeIndex first_child(NodeIndex n) const { return first_child_[n]; }
  NodeIndex next_sibling(NodeIndex n) const { return next_sibling_[n]; }

  NodeIndex root() const { return 0; }
  size_t node_count() const { return item_.size(); }

  // One past the largest ItemId the dense tables cover.
  size_t item_table_size() const { return header_first_.size(); }

  // Resident bytes of the arena and the dense tables (vector capacities).
  // What the memory budget is charged for a live tree.
  size_t MemoryFootprint() const;
  // Bytes the arena and tables need for this tree alone (sizes, not
  // capacities), so the figure does not depend on what an arena held before.
  size_t UsedBytes() const;

 private:
  NodeIndex NewNode(ItemId item, NodeIndex parent);
  NodeIndex ChildFor(NodeIndex node, ItemId item);
  // Grows the dense tables to cover `item` and records first touches so
  // Clear() can reset only what was used.
  void EnsureItem(ItemId item);

  // Structure-of-arrays node arena; index 0 is the root.
  std::vector<ItemId> item_;
  std::vector<uint32_t> count_;
  std::vector<NodeIndex> parent_;
  std::vector<NodeIndex> next_same_item_;
  std::vector<NodeIndex> first_child_;
  std::vector<NodeIndex> next_sibling_;

  // Dense per-item tables, indexed by ItemId.
  std::vector<NodeIndex> header_first_;
  std::vector<NodeIndex> header_last_;
  std::vector<uint32_t> item_counts_;
  // Items with live table entries, so Clear() is proportional to tree
  // content rather than table width.
  std::vector<ItemId> touched_items_;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_FPTREE_H_
