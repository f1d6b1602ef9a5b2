#include "mining/fptree.h"

#include <algorithm>
#include <bit>
#include <cstddef>

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

FpTree::NodeIndex FpTree::NewChild(NodeIndex parent, NodeIndex last_child,
                                   ItemId item) {
  EnsureItem(item);
  const NodeIndex fresh = static_cast<NodeIndex>(item_.size());
  item_.push_back(item);
  count_.push_back(0);
  parent_.push_back(parent);
  next_same_item_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  if (last_child == kNoNode) {
    first_child_[parent] = fresh;
  } else {
    next_sibling_[last_child] = fresh;
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

FpTree::NodeIndex FpTree::ChildFor(NodeIndex node, ItemId item) {
  NodeIndex child = first_child_[node];
  NodeIndex last = kNoNode;
  while (child != kNoNode) {
    if (item_[child] == item) return child;
    last = child;
    child = next_sibling_[child];
  }
  return NewChild(node, last, item);
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
  for (size_t raw = 0; raw < item_bound; ++raw) {
    supports[raw] =
        static_cast<uint32_t>(db.ItemSupport(static_cast<ItemId>(raw)));
  }
  // Exact retained-occurrence count: every kept occurrence creates at most
  // one node, so one bulk reservation covers the whole build.
  size_t kept = 0;
  for (uint32_t support : supports) {
    if (support >= min_support) kept += support;
  }
  tree.ReserveItems(item_bound);
  tree.ReserveNodes(kept + 1);
  // Rank the kept items: descending support, ties ascending id. A path of
  // ranks in ascending order is the support-ordered transaction, and
  // comparing ranks compares in that order.
  std::vector<ItemId> by_rank;
  for (size_t raw = 0; raw < item_bound; ++raw) {
    if (supports[raw] >= min_support) {
      by_rank.push_back(static_cast<ItemId>(raw));
    }
  }
  std::sort(by_rank.begin(), by_rank.end(), [&supports](ItemId a, ItemId b) {
    if (supports[a] != supports[b]) return supports[a] > supports[b];
    return a < b;
  });
  constexpr uint32_t kDropped = 0xFFFFFFFFu;
  std::vector<uint32_t> rank(item_bound, kDropped);
  for (size_t r = 0; r < by_rank.size(); ++r) {
    rank[by_rank[r]] = static_cast<uint32_t>(r);
  }
  // Every non-empty filtered path, rank-sorted, in one flat buffer; path p
  // is ranks[begin[p], begin[p + 1]).
  std::vector<uint32_t> ranks;
  ranks.reserve(kept);
  std::vector<uint32_t> begin;
  begin.reserve(db.size() + 1);
  begin.push_back(0);
  for (const Itemset& t : db.transactions()) {
    const size_t start = ranks.size();
    for (ItemId item : t) {
      if (rank[item] != kDropped) ranks.push_back(rank[item]);
    }
    if (ranks.size() == start) continue;
    std::sort(ranks.begin() + static_cast<ptrdiff_t>(start), ranks.end());
    begin.push_back(static_cast<uint32_t>(ranks.size()));
  }
  // Sort the paths lexicographically. A path's key packs its first ranks,
  // each plus one so that a path sorts before its extensions, into 64 bits,
  // most significant first; paths with equal keys compare their remaining
  // ranks.
  const size_t bits = std::bit_width(by_rank.size());
  const size_t packed = bits == 0 ? 0 : 64 / bits;
  struct KeyedPath {
    uint64_t key;
    uint32_t path;
  };
  std::vector<KeyedPath> order(begin.size() - 1);
  for (size_t p = 0; p < order.size(); ++p) {
    uint64_t key = 0;
    for (size_t i = 0; i < packed; ++i) {
      key <<= bits;
      if (begin[p] + i < begin[p + 1]) key |= ranks[begin[p] + i] + 1;
    }
    order[p] = {key, static_cast<uint32_t>(p)};
  }
  auto unpacked = [&](uint32_t p) {
    return ranks.begin() + std::min<size_t>(begin[p] + packed, begin[p + 1]);
  };
  // Least-significant-digit radix sort on the keys, a byte per pass over
  // the bits in use; stable, so only runs of equal keys need another sort.
  std::vector<KeyedPath> sorted(order.size());
  for (size_t shift = 0; shift < packed * bits; shift += 8) {
    size_t starts[257] = {};
    for (const KeyedPath& p : order) ++starts[((p.key >> shift) & 0xFF) + 1];
    for (size_t digit = 0; digit < 256; ++digit) {
      starts[digit + 1] += starts[digit];
    }
    for (const KeyedPath& p : order) {
      sorted[starts[(p.key >> shift) & 0xFF]++] = p;
    }
    order.swap(sorted);
  }
  for (size_t lo = 0; lo < order.size();) {
    size_t hi = lo + 1;
    while (hi < order.size() && order[hi].key == order[lo].key) ++hi;
    std::sort(order.begin() + static_cast<ptrdiff_t>(lo),
              order.begin() + static_cast<ptrdiff_t>(hi),
              [&](const KeyedPath& a, const KeyedPath& b) {
                return std::lexicographical_compare(
                    unpacked(a.path), ranks.begin() + begin[a.path + 1],
                    unpacked(b.path), ranks.begin() + begin[b.path + 1]);
              });
    lo = hi;
  }
  // Walk the paths in lexicographic order. stack[d] is the node at depth
  // d + 1 of the previous path; a path shares its longest common prefix
  // with that path, and each node below the prefix is new and its parent's
  // last child: at the first new depth the previous path's node there (if
  // any) was the last child, and deeper parents are new and childless.
  // Nodes are therefore numbered depth-first and no child is searched for.
  std::vector<NodeIndex> stack;
  const uint32_t* prev = nullptr;
  size_t prev_len = 0;
  for (const KeyedPath& keyed : order) {
    const uint32_t p = keyed.path;
    const uint32_t* path = ranks.data() + begin[p];
    const size_t len = begin[p + 1] - begin[p];
    size_t common = 0;
    while (common < len && common < prev_len && path[common] == prev[common]) {
      ++common;
    }
    NodeIndex last_child = common < prev_len ? stack[common] : kNoNode;
    stack.resize(common);
    for (size_t d = common; d < len; ++d) {
      const NodeIndex parent = d == 0 ? 0 : stack[d - 1];
      stack.push_back(tree.NewChild(parent, last_child, by_rank[path[d]]));
      last_child = kNoNode;
    }
    for (NodeIndex node : stack) ++tree.count_[node];
    prev = path;
    prev_len = len;
  }
  // A transaction holds an item at most once, so an item's count in the
  // tree is its support.
  for (ItemId item : tree.touched_items_) {
    tree.item_counts_[item] = supports[item];
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
