#include "mining/fpgrowth.h"

#include <algorithm>
#include <memory>

#include "util/mutex.h"
#include "util/run_context.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace maras::mining {

// Per-task scratch for the allocation-free recursion. frames[d] holds the
// recycled arena the conditional tree at depth d is built into, plus the
// item-order buffer for mining it; cond_counts/touched/path serve whichever
// BuildConditional is currently running (construction at depth d finishes
// before the recursion descends, so one shared set suffices); suffix is the
// current pattern, kept sorted, extended in place and popped on unwind.
struct FpGrowth::MineScratch {
  struct Frame {
    FpTree tree;
    std::vector<ItemId> items;
    size_t charged_bytes = 0;  // arena footprint already charged
  };

  std::vector<std::unique_ptr<Frame>> frames;
  std::vector<uint32_t> cond_counts;  // dense, indexed by ItemId
  std::vector<ItemId> touched;        // items with nonzero cond_counts
  std::vector<ItemId> path;           // one filtered prefix path
  Itemset suffix;                     // sorted current pattern
  std::vector<ItemId> top_items;      // depth-0 item order
  size_t arena_charged = 0;           // total arena bytes charged to budget

  explicit MineScratch(const FpTree& global_tree) {
    cond_counts.assign(global_tree.item_table_size(), 0);
    suffix.reserve(32);
    path.reserve(64);
  }

  Frame& FrameAt(size_t depth) {
    while (frames.size() <= depth) {
      frames.push_back(std::make_unique<Frame>());
    }
    return *frames[depth];
  }
};

namespace {

// Hands out MineScratch instances to parallel mining tasks. At most one
// scratch exists per concurrently running task (≤ worker count), and a
// recycled scratch keeps its grown arenas, so the fan-out over hundreds of
// top-level items performs a bounded number of arena allocations total.
class ScratchPool {
 public:
  explicit ScratchPool(const FpTree& global_tree)
      : global_tree_(global_tree) {}

  std::unique_ptr<FpGrowth::MineScratch> Acquire() {
    {
      MutexLock lock(&mu_);
      if (!free_.empty()) {
        auto scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<FpGrowth::MineScratch>(global_tree_);
  }

  void Recycle(std::unique_ptr<FpGrowth::MineScratch> scratch) {
    MutexLock lock(&mu_);
    free_.push_back(std::move(scratch));
  }

  // Sum of arena bytes the pool's scratches charged. Call after the fan-out
  // has drained (every lease returned), before the arenas are freed.
  size_t TotalArenaCharged() {
    MutexLock lock(&mu_);
    size_t total = 0;
    for (const auto& scratch : free_) total += scratch->arena_charged;
    return total;
  }

 private:
  const FpTree& global_tree_;
  // mu_ guards the free list only; a leased scratch is owned exclusively
  // by its task (the lease pointer never aliases) until Recycle hands it
  // back under the lock.
  Mutex mu_;
  std::vector<std::unique_ptr<FpGrowth::MineScratch>> free_ GUARDED_BY(mu_);
};

// RAII lease so a task returns its scratch on every exit path.
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool* pool)
      : pool_(pool), scratch_(pool->Acquire()) {}
  ~ScratchLease() { pool_->Recycle(std::move(scratch_)); }
  FpGrowth::MineScratch* get() { return scratch_.get(); }

 private:
  ScratchPool* pool_;
  std::unique_ptr<FpGrowth::MineScratch> scratch_;
};

// Approximate resident bytes of one recorded itemset: the struct, its item
// payload, and the support-table slot. The budget bounds blow-up by order
// of magnitude, not by exact allocator bytes, so an estimate is enough.
size_t ItemsetFootprint(const Itemset& pattern) {
  return sizeof(FrequentItemset) + pattern.size() * sizeof(ItemId) + 64;
}

}  // namespace

maras::StatusOr<FrequentItemsetResult> FpGrowth::Mine(
    const TransactionDatabase& db) const {
  if (options_.min_support == 0) {
    return maras::Status::InvalidArgument("min_support must be >= 1");
  }
  if (options_.shard_count == 0 ||
      options_.shard_index >= options_.shard_count) {
    return maras::Status::InvalidArgument(
        "shard_index must be < shard_count (>= 1)");
  }
  const RunContext* ctx = options_.context;
  FrequentItemsetResult result;
  const FpTree tree = FpTree::Build(db, options_.min_support);
  // Arena accounting is separate from itemset accounting: arenas (the
  // global tree and the recycled conditional frames) die when this call
  // returns, so their charges are always released here; recorded itemsets
  // outlive the call, so their charges persist on success and are released
  // only when the mine fails.
  size_t arena_charged = 0;
  maras::Status status;
  if (ctx != nullptr) {
    const size_t bytes = tree.MemoryFootprint();
    status = ctx->Charge(bytes);
    if (!status.ok()) return maras::WithContext(status, "fp-growth");
    arena_charged += bytes;
  }
  // The shard stride indexes the database's support-ascending order of
  // every item with support >= 1, so every shard agrees on which index each
  // item holds regardless of the support it mines at or how many items its
  // own slice keeps. That order starts with the items frequent at support 1
  // but not at min_support, which shifts every index of this tree's order
  // by their count.
  std::vector<ItemId> items = tree.ItemsBySupportAscending();
  if (options_.shard_count > 1) {
    size_t shift = 0;
    for (ItemId item = 0; item < db.item_bound(); ++item) {
      const size_t support = db.ItemSupport(item);
      if (support >= 1 && support < options_.min_support) ++shift;
    }
    std::vector<ItemId> mine_items;
    mine_items.reserve(items.size() / options_.shard_count + 1);
    for (size_t i = 0; i < items.size(); ++i) {
      if ((i + shift) % options_.shard_count == options_.shard_index) {
        mine_items.push_back(items[i]);
      }
    }
    items = std::move(mine_items);
  }
  const size_t workers = EffectiveThreads(options_.num_threads, items.size());
  size_t charged = 0;
  if (workers <= 1) {
    // Loop the (possibly shard-filtered) top-level items directly; each
    // MineItem call recurses through MineTree for its conditional trees.
    MineScratch scratch(tree);
    status = maras::Status::OK();
    for (ItemId item : items) {
      status = MineItem(tree, item, /*depth=*/0, &scratch, &result, &charged);
      if (!status.ok()) break;
    }
    arena_charged += scratch.arena_charged;
  } else {
    // Fan out one task per top-level item. Tasks only read the shared tree
    // and write their own shard (result + charge accounting); the canonical
    // sort below erases any trace of the schedule.
    const RunContext ungoverned;
    std::vector<FrequentItemsetResult> shards(items.size());
    std::vector<size_t> shard_charged(items.size(), 0);
    ScratchPool pool(tree);
    status = TryParallelFor(
        workers, items.size(), ctx != nullptr ? *ctx : ungoverned,
        [this, &tree, &items, &shards, &shard_charged, &pool](size_t i) {
          ScratchLease lease(&pool);
          return MineItem(tree, items[i], /*depth=*/0, lease.get(),
                          &shards[i], &shard_charged[i]);
        });
    for (size_t c : shard_charged) charged += c;
    arena_charged += pool.TotalArenaCharged();
    if (status.ok()) {
      for (FrequentItemsetResult& shard : shards) {
        result.Absorb(std::move(shard));
      }
    }
  }
  if (ctx != nullptr && ctx->budget != nullptr) {
    ctx->budget->Release(arena_charged);
  }
  if (!status.ok()) {
    // A failed mine keeps nothing, so its accounting must not linger: a
    // degradation retry at higher support starts from a clean budget.
    if (ctx != nullptr && ctx->budget != nullptr) ctx->budget->Release(charged);
    return maras::WithContext(status, "fp-growth");
  }
  result.SortCanonically();
  return result;
}

maras::Status FpGrowth::MineTree(const FpTree& tree, size_t depth,
                                 MineScratch* scratch,
                                 FrequentItemsetResult* result,
                                 size_t* charged) const {
  if (options_.max_itemset_size != 0 &&
      scratch->suffix.size() >= options_.max_itemset_size) {
    return maras::Status::OK();
  }
  // The item-order buffer for depth d lives next to the arena that owns
  // `tree` (the frame for depth d-1; the global tree uses top_items), so
  // the loop below stays valid while deeper recursion fills other frames.
  std::vector<ItemId>* items = depth == 0
                                   ? &scratch->top_items
                                   : &scratch->FrameAt(depth - 1).items;
  tree.ItemsBySupportAscending(items);
  for (ItemId item : *items) {
    MARAS_RETURN_IF_ERROR(
        MineItem(tree, item, depth, scratch, result, charged));
  }
  return maras::Status::OK();
}

maras::Status FpGrowth::MineItem(const FpTree& tree, ItemId item,
                                 size_t depth, MineScratch* scratch,
                                 FrequentItemsetResult* result,
                                 size_t* charged) const {
  if (options_.max_itemset_size != 0 &&
      scratch->suffix.size() >= options_.max_itemset_size) {
    return maras::Status::OK();
  }
  // One poll per conditional-tree step bounds the governance interval: the
  // non-recursive work below is O(pattern base), never unbounded.
  if (options_.context != nullptr) {
    MARAS_RETURN_IF_ERROR(options_.context->Check());
  }
  const size_t support = tree.ItemCount(item);
  if (support < options_.min_support) return maras::Status::OK();
  // Extend the suffix in place at its sorted position; popped on unwind.
  Itemset& suffix = scratch->suffix;
  const size_t pos = static_cast<size_t>(
      std::lower_bound(suffix.begin(), suffix.end(), item) - suffix.begin());
  suffix.insert(suffix.begin() + pos, item);
  maras::Status status = maras::Status::OK();
  do {
    if (options_.context != nullptr) {
      const size_t bytes = ItemsetFootprint(suffix);
      status = options_.context->Charge(bytes);
      if (!status.ok()) break;
      *charged += bytes;
    }
    result->Add(Itemset(suffix), support);

    if (options_.max_itemset_size != 0 &&
        suffix.size() >= options_.max_itemset_size) {
      break;  // no deeper extensions wanted
    }

    // Conditional counts over the pattern base (pass 1): walk every parent
    // chain of `item`, accumulating into the dense table.
    for (FpTree::NodeIndex node = tree.HeaderChain(item);
         node != FpTree::kNoNode; node = tree.next_same_item(node)) {
      const uint32_t node_count = static_cast<uint32_t>(tree.count(node));
      for (FpTree::NodeIndex up = tree.parent(node); up != tree.root();
           up = tree.parent(up)) {
        const ItemId path_item = tree.item(up);
        if (scratch->cond_counts[path_item] == 0) {
          scratch->touched.push_back(path_item);
        }
        scratch->cond_counts[path_item] += node_count;
      }
    }
    if (scratch->touched.empty()) break;  // empty pattern base

    // Build the conditional tree into this depth's recycled arena (pass 2):
    // re-walk each prefix path, keep items frequent within the base, order
    // by conditional support, insert with the node's multiplicity.
    MineScratch::Frame& frame = scratch->FrameAt(depth);
    FpTree& conditional = frame.tree;
    conditional.Clear();
    conditional.ReserveItems(tree.item_table_size());
    auto order = [scratch](ItemId a, ItemId b) {
      const uint32_t ca = scratch->cond_counts[a];
      const uint32_t cb = scratch->cond_counts[b];
      if (ca != cb) return ca > cb;
      return a < b;
    };
    for (FpTree::NodeIndex node = tree.HeaderChain(item);
         node != FpTree::kNoNode; node = tree.next_same_item(node)) {
      scratch->path.clear();
      for (FpTree::NodeIndex up = tree.parent(node); up != tree.root();
           up = tree.parent(up)) {
        const ItemId path_item = tree.item(up);
        if (scratch->cond_counts[path_item] >= options_.min_support) {
          scratch->path.push_back(path_item);
        }
      }
      if (scratch->path.empty()) continue;
      std::sort(scratch->path.begin(), scratch->path.end(), order);
      conditional.Insert(scratch->path.data(), scratch->path.size(),
                         tree.count(node));
    }
    // Reset the dense counts via the touched list — O(base items), not
    // O(item universe).
    for (ItemId touched_item : scratch->touched) {
      scratch->cond_counts[touched_item] = 0;
    }
    scratch->touched.clear();

    // Charge arena growth: recycled capacity is charged once, at its
    // high-water mark, and released by Mine when the scratch dies.
    if (options_.context != nullptr) {
      const size_t footprint = frame.tree.MemoryFootprint();
      if (footprint > frame.charged_bytes) {
        status = options_.context->Charge(footprint - frame.charged_bytes);
        if (!status.ok()) break;
        scratch->arena_charged += footprint - frame.charged_bytes;
        frame.charged_bytes = footprint;
      }
    }

    status = MineTree(conditional, depth + 1, scratch, result, charged);
  } while (false);
  // Leftover touched counts are possible only on the `touched.empty()`
  // break (which left nothing) or before pass 1 ran; every path that
  // accumulated counts also reset them above, so the scratch is clean for
  // the next sibling.
  suffix.erase(suffix.begin() + pos);
  return status;
}

}  // namespace maras::mining
