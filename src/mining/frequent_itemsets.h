#ifndef MARAS_MINING_FREQUENT_ITEMSETS_H_
#define MARAS_MINING_FREQUENT_ITEMSETS_H_

#include <cstddef>
#include <vector>

#include "mining/flat_table.h"
#include "mining/itemset.h"

namespace maras {
struct RunContext;
}  // namespace maras

namespace maras::mining {

// A mined itemset together with its absolute support count.
struct FrequentItemset {
  Itemset items;
  size_t support = 0;
};

// The full result of a frequent-itemset mining pass: the itemsets plus a
// support lookup table (used by rule generation and closedness checks).
// The lookup is a flat open-addressed index into the itemset vector itself,
// so each mined itemset exists exactly once in memory and a support probe
// touches one slot array instead of chasing unordered_map nodes.
class FrequentItemsetResult {
 public:
  FrequentItemsetResult() = default;

  void Add(Itemset items, size_t support);

  const std::vector<FrequentItemset>& itemsets() const { return itemsets_; }
  size_t size() const { return itemsets_.size(); }

  // Support of `s` when it was mined; 0 otherwise.
  size_t SupportOf(const Itemset& s) const;

  // Sorts into the canonical result order every miner in the suite emits:
  // itemset lexicographic (by ascending ItemId sequence), ties broken by
  // ascending support. Itemsets are unique within one mining pass, so the
  // order — and therefore any serialization of the result — is a pure
  // function of the mined (itemset, support) family, independent of
  // algorithm, shard count, and thread schedule.
  void SortCanonically();

  // Moves every itemset of `other` into this result. Used to merge the
  // per-shard results of a parallel mining pass; callers must ensure shards
  // are disjoint and should SortCanonically() after the last merge.
  void Absorb(FrequentItemsetResult&& other);

 private:
  struct KeyAt {
    const FrequentItemsetResult* result;
    const Itemset& operator()(uint32_t i) const {
      return result->itemsets_[i].items;
    }
  };

  std::vector<FrequentItemset> itemsets_;
  FlatItemsetIndex index_;  // entry i -> itemsets_[i].items
};

// FP-Growth's knobs. The test-only reference miners in tests/oracles honour
// only min_support and max_itemset_size.
struct MiningOptions {
  // Absolute minimum support count (the paper mines with a very low support
  // threshold to keep rare drug combinations; Section 1.3).
  size_t min_support = 2;
  // Upper bound on mined itemset size; 0 means unbounded. Reports mention
  // up to ~4 interacting drugs; capping keeps the search tractable on dense
  // synthetic data.
  size_t max_itemset_size = 0;
  // Worker threads for the parallelizable stages: FP-Growth's per-item
  // conditional-tree fan-out and the closed-set filter. 0 and 1 both mean
  // serial. Results are byte-identical for every value — the determinism
  // suite asserts it — so this is purely a speed knob.
  size_t num_threads = 1;
  // Multi-process item-range sharding of FP-Growth's top-level fan-out:
  // mine only the top-level items whose index i — in the database's
  // support-ascending order of every item with support >= 1 — satisfies
  // i % shard_count == shard_index. FP-Growth emits every frequent itemset
  // exactly once, in the task of its least frequent item, so the shards
  // partition the full family: concatenating all shard_count results and
  // sorting canonically reconstructs the unsharded mine byte for byte.
  // Indexing the stride over that order rather than over the frequent items
  // alone makes an item's owner independent of min_support, so slices
  // mined at different supports and cut at the largest still partition the
  // family mined there. The stride (rather than a contiguous range)
  // balances load — neighbors in support order have similar
  // conditional-tree sizes. shard_count == 1 (with shard_index 0) means
  // unsharded.
  size_t shard_index = 0;
  size_t shard_count = 1;
  // Optional resource governance (util/run_context.h). When set, FP-Growth
  // polls it once per conditional-tree step and charges its memory budget
  // for every itemset recorded, so a runaway low-support mine stops with
  // kCancelled / kDeadlineExceeded / kResourceExhausted instead of hanging
  // or OOMing. Does not affect mined output when nothing trips.
  // nullptr = ungoverned.
  const RunContext* context = nullptr;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_FREQUENT_ITEMSETS_H_
