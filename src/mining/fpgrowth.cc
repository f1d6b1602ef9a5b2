#include "mining/fpgrowth.h"

#include <algorithm>
#include <memory>

#include "util/mutex.h"
#include "util/run_context.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// Charges the memory budget for the conditional-tree arenas as a function of
// the input alone: the largest tree built at each depth, sized by its node
// and table counts — what one scratch needs, and what a serial mine charges.
// What each worker's scratch grew to depends on which items the schedule
// gave it and on vector capacities left by earlier trees; charging that
// would let a budget-degraded mine escalate to a different support from
// run to run.
// With one figure for every thread count, it escalates to the same support
// at any of them.
//
// So the budget bounds a serial mine's arenas, not a parallel one's: the
// other workers' scratches go uncharged, at most workers - 1 more of the
// same plus vector growth slack. Measured on perfbench's `year` family
// (DESIGN.md, "Budget accounting for recycled arenas"), the resident arenas
// were 1.04x the arena charge at 1 thread, 1.9x at 2 and 5.4x at 8: 1.0 MB
// uncharged beside 2.5 MB of recorded itemsets. Charging workers x the
// marks would bound them, but it sends an 8-thread mine of the test corpora
// to a support twice what 1 and 2 threads stop at, where no rules remain.
class ArenaLedger {
 public:
  explicit ArenaLedger(const RunContext* ctx) : ctx_(ctx) {}

  // Raises the high-water mark of `depth` to `bytes`, charging the rise.
  // `*known` is the caller's cached mark for `depth`, a lower bound of the
  // shared one, so a tree no larger than it skips the lock.
  maras::Status Raise(size_t depth, size_t bytes, size_t* known) {
    if (bytes <= *known) return maras::Status::OK();
    MutexLock lock(&mu_);
    if (high_water_.size() <= depth) high_water_.resize(depth + 1, 0);
    size_t& mark = high_water_[depth];
    if (bytes > mark) {
      MARAS_RETURN_IF_ERROR(ctx_->Charge(bytes - mark));
      charged_ += bytes - mark;
      mark = bytes;
    }
    *known = mark;
    return maras::Status::OK();
  }

  size_t charged() {
    MutexLock lock(&mu_);
    return charged_;
  }

 private:
  const RunContext* ctx_;
  Mutex mu_;
  std::vector<size_t> high_water_ GUARDED_BY(mu_);  // per depth
  size_t charged_ GUARDED_BY(mu_) = 0;
};

}  // namespace

// Per-worker scratch for the allocation-free recursion. frames[d] holds the
// recycled arena the conditional tree at depth d is built into, plus the
// item-order buffer for mining it; cond_counts/touched/path serve whichever
// BuildConditional is currently running (construction at depth d finishes
// before the recursion descends, so one shared set suffices); suffix is the
// current pattern, kept sorted, extended in place and popped on unwind.
struct FpGrowth::MineScratch {
  struct Frame {
    FpTree tree;
    std::vector<ItemId> items;
    size_t known_high_water = 0;  // ArenaLedger mark last seen here
  };

  std::vector<std::unique_ptr<Frame>> frames;
  std::vector<uint32_t> cond_counts;  // dense, indexed by ItemId
  std::vector<ItemId> touched;        // items with nonzero cond_counts
  std::vector<ItemId> path;           // one filtered prefix path
  Itemset suffix;                     // sorted current pattern
  std::vector<ItemId> top_items;      // depth-0 item order
  ArenaLedger* ledger = nullptr;      // null when ungoverned

  MineScratch(const FpTree& global_tree, ArenaLedger* ledger_in)
      : ledger(ledger_in) {
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
  const std::vector<ItemId> items = tree.ItemsBySupportAscending();
  const size_t workers = EffectiveThreads(options_.num_threads, items.size());
  ArenaLedger ledger(ctx);
  ArenaLedger* governed = ctx != nullptr ? &ledger : nullptr;
  size_t charged = 0;
  if (workers <= 1) {
    // Loop the top-level items directly; each MineItem call recurses
    // through MineTree for its conditional trees.
    MineScratch scratch(tree, governed);
    status = maras::Status::OK();
    for (ItemId item : items) {
      status = MineItem(tree, item, /*depth=*/0, &scratch, &result, &charged);
      if (!status.ok()) break;
    }
  } else {
    // Fan out one loop index per top-level item. Each index only reads the
    // shared tree and writes its own shard (result + charge accounting);
    // the canonical sort below erases any trace of the schedule. Each
    // worker slot owns one scratch, whose grown arenas serve every item
    // that worker mines.
    const RunContext ungoverned;
    std::vector<FrequentItemsetResult> shards(items.size());
    std::vector<size_t> shard_charged(items.size(), 0);
    std::vector<MineScratch> scratches;
    scratches.reserve(workers);
    for (size_t w = 0; w < workers; ++w) scratches.emplace_back(tree, governed);
    status = TryParallelFor(
        workers, items.size(), ctx != nullptr ? *ctx : ungoverned,
        [&](size_t slot, size_t i) {
          return MineItem(tree, items[i], /*depth=*/0, &scratches[slot],
                          &shards[i], &shard_charged[i]);
        });
    for (size_t c : shard_charged) charged += c;
    if (status.ok()) {
      for (FrequentItemsetResult& shard : shards) {
        result.Absorb(std::move(shard));
      }
    }
  }
  arena_charged += ledger.charged();
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

    // Charge arena growth through the ledger; Mine releases it when the
    // scratches die.
    if (scratch->ledger != nullptr) {
      status = scratch->ledger->Raise(depth, conditional.UsedBytes(),
                                      &frame.known_high_water);
      if (!status.ok()) break;
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
