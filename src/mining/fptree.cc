#include "mining/fptree.h"

#include <algorithm>


namespace maras::mining {

FpTree::FpTree() {
  // Root node at index 0.
  item_.push_back(0);
  count_.push_back(0);
  parent_.push_back(kNoNode);
  next_same_item_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
}

void FpTree::Clear() {
  item_.resize(1);
  count_.resize(1);
  parent_.resize(1);
  next_same_item_.resize(1);
  first_child_.resize(1);
  next_sibling_.resize(1);
  count_[0] = 0;
  first_child_[0] = kNoNode;
  for (ItemId item : touched_items_) {
    header_first_[item] = kNoNode;
    header_last_[item] = kNoNode;
    item_counts_[item] = 0;
  }
  touched_items_.clear();
}

void FpTree::ReserveNodes(size_t nodes) {
  item_.reserve(nodes);
  count_.reserve(nodes);
  parent_.reserve(nodes);
  next_same_item_.reserve(nodes);
  first_child_.reserve(nodes);
  next_sibling_.reserve(nodes);
}

void FpTree::ReserveItems(size_t item_bound) {
  if (item_bound <= header_first_.size()) return;
  header_first_.resize(item_bound, kNoNode);
  header_last_.resize(item_bound, kNoNode);
  item_counts_.resize(item_bound, 0);
}

void FpTree::EnsureItem(ItemId item) {
  if (item >= header_first_.size()) {
    ReserveItems(static_cast<size_t>(item) + 1);
  }
  if (header_first_[item] == kNoNode && item_counts_[item] == 0) {
    touched_items_.push_back(item);
  }
}

FpTree::NodeIndex FpTree::NewNode(ItemId item, NodeIndex parent) {
  const NodeIndex node = static_cast<NodeIndex>(item_.size());
  item_.push_back(item);
  count_.push_back(0);
  parent_.push_back(parent);
  next_same_item_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  return node;
}

FpTree::NodeIndex FpTree::ChildFor(NodeIndex node, ItemId item) {
  NodeIndex child = first_child_[node];
  NodeIndex last = kNoNode;
  while (child != kNoNode) {
    if (item_[child] == item) return child;
    last = child;
    child = next_sibling_[child];
  }
  EnsureItem(item);
  const NodeIndex fresh = NewNode(item, node);
  if (last == kNoNode) {
    first_child_[node] = fresh;
  } else {
    next_sibling_[last] = fresh;
  }
  // Append to the header chain.
  if (header_last_[item] == kNoNode) {
    header_first_[item] = fresh;
  } else {
    next_same_item_[header_last_[item]] = fresh;
  }
  header_last_[item] = fresh;
  return fresh;
}

void FpTree::Insert(const ItemId* path, size_t len, size_t count) {
  NodeIndex node = 0;
  const uint32_t delta = static_cast<uint32_t>(count);
  for (size_t i = 0; i < len; ++i) {
    const ItemId item = path[i];
    node = ChildFor(node, item);
    count_[node] += delta;
    EnsureItem(item);
    item_counts_[item] += delta;
  }
}

FpTree FpTree::Build(const TransactionDatabase& db, size_t min_support) {
  FpTree tree;
  const size_t item_bound = db.item_bound();
  // Global item supports, densely indexed.
  std::vector<uint32_t> supports(item_bound, 0);
  for (const Itemset& t : db.transactions()) {
    for (ItemId item : t) ++supports[item];
  }
  // Exact retained-occurrence count: every kept occurrence creates at most
  // one node, so one bulk reservation covers the whole build.
  size_t kept = 0;
  for (uint32_t support : supports) {
    if (support >= min_support) kept += support;
  }
  tree.ReserveItems(item_bound);
  tree.ReserveNodes(kept + 1);
  // Per-transaction reorder: descending support, ties ascending id.
  auto order = [&supports](ItemId a, ItemId b) {
    const uint32_t sa = supports[a];
    const uint32_t sb = supports[b];
    if (sa != sb) return sa > sb;
    return a < b;
  };
  std::vector<ItemId> path;
  for (const Itemset& t : db.transactions()) {
    path.clear();
    for (ItemId item : t) {
      if (supports[item] >= min_support) path.push_back(item);
    }
    if (path.empty()) continue;
    std::sort(path.begin(), path.end(), order);
    tree.Insert(path.data(), path.size(), 1);
  }
  return tree;
}

std::vector<ItemId> FpTree::ItemsBySupportAscending() const {
  std::vector<ItemId> items;
  ItemsBySupportAscending(&items);
  return items;
}

void FpTree::ItemsBySupportAscending(std::vector<ItemId>* out) const {
  out->clear();
  for (ItemId item : touched_items_) {
    if (item_counts_[item] > 0) out->push_back(item);
  }
  std::sort(out->begin(), out->end(), [this](ItemId a, ItemId b) {
    const uint32_t sa = item_counts_[a];
    const uint32_t sb = item_counts_[b];
    if (sa != sb) return sa < sb;
    return a > b;
  });
}

size_t FpTree::ItemCount(ItemId item) const {
  return item < item_counts_.size() ? item_counts_[item] : 0;
}

FpTree::NodeIndex FpTree::HeaderChain(ItemId item) const {
  return item < header_first_.size() ? header_first_[item] : kNoNode;
}

size_t FpTree::MemoryFootprint() const {
  return item_.capacity() * sizeof(ItemId) +
         count_.capacity() * sizeof(uint32_t) +
         parent_.capacity() * sizeof(NodeIndex) +
         next_same_item_.capacity() * sizeof(NodeIndex) +
         first_child_.capacity() * sizeof(NodeIndex) +
         next_sibling_.capacity() * sizeof(NodeIndex) +
         header_first_.capacity() * sizeof(NodeIndex) +
         header_last_.capacity() * sizeof(NodeIndex) +
         item_counts_.capacity() * sizeof(uint32_t) +
         touched_items_.capacity() * sizeof(ItemId);
}

size_t FpTree::UsedBytes() const {
  return item_.size() * (sizeof(ItemId) + sizeof(uint32_t) +
                         4 * sizeof(NodeIndex)) +
         header_first_.size() * (2 * sizeof(NodeIndex) + sizeof(uint32_t)) +
         touched_items_.size() * sizeof(ItemId);
}

}  // namespace maras::mining
