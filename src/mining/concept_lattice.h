#ifndef MARAS_MINING_CONCEPT_LATTICE_H_
#define MARAS_MINING_CONCEPT_LATTICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mining/frequent_itemsets.h"
#include "mining/itemset.h"
#include "util/statusor.h"

namespace maras {
struct RunContext;
}  // namespace maras

namespace maras::mining {

// ---------------------------------------------------------------------------
// Concept lattice over the mined closed family.
//
// Closed itemsets are exactly the (intents of the) concepts of formal
// concept analysis, and MCAC gathering is a proper-subset-antecedent query:
// every contextual rule's support is the support of some closed set below
// the target concept, because supp(X) = supp(closure(X)) and closure(X) is
// contained in any database-closed superset of X. The lattice stores the
// covering (Hasse) edges between closed sets once, built in parallel after
// mining, so per-target subset supports become short downward walks instead
// of whole-database tid-list intersections.
//
// Layout follows the PR-4 flat SoA discipline: one ItemId pool plus begin
// offsets for the node itemsets, one uint64 support lane, and two CSR edge
// arenas (covered subsets / covering supersets), all 32-bit indexed. Node
// ids are positions in the canonical closed order, so the lattice is a pure
// function of the closed family — identical at any thread count.
//
// Exactness precondition for DescendToClosure (proved by the differential
// oracles, relied on by the rules stage and BuildMcac): the walk returns
// closure(X)'s node when the start node's itemset is database-closed and
// every database-closed subset of it above the mining threshold is present
// in the family. Both hold for every rule target when the family is
// complete at one support. Below the size cap a closed node is
// database-closed: an equal-support proper superset would also fit under
// the cap, so it was mined and the closed filter dropped the node. At the
// cap the rules stage keeps a candidate only if IsClosedInDatabase confirms
// it. Every database-closed subset of a target is no larger and no rarer,
// so it was mined and kept. (An uncapped mine satisfies it for every node.)
// ---------------------------------------------------------------------------

class ConceptLattice {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  ConceptLattice() = default;

  // Builds nodes from the (canonically sorted) closed family and their
  // covering edges with the cover join (mining/cover_join.h), whose
  // per-node fan-out runs on `num_threads` workers and polls `ctx` at a
  // bounded interval; output is byte-identical at any thread count. The
  // edges are exact for any family of distinct itemsets, including
  // size-capped families that are not closed under intersection; an empty
  // itemset is never a cover. Fails on families past 32-bit node indexing.
  static maras::StatusOr<ConceptLattice> Build(
      const FrequentItemsetResult& closed, size_t num_threads,
      const RunContext& ctx);

  size_t node_count() const { return support_.size(); }
  // Number of covering edges (counted once, not per direction).
  size_t edge_count() const { return subsets_.size(); }

  // The node's itemset, ascending ItemIds inside the shared pool.
  std::span<const ItemId> NodeItems(uint32_t node) const {
    return {item_pool_.data() + node_item_begin_[node],
            node_item_begin_[node + 1] - node_item_begin_[node]};
  }
  uint64_t NodeSupport(uint32_t node) const { return support_[node]; }

  // Covering edges, node ids ascending. Subsets = maximal closed proper
  // subsets (the "generalize" direction); Supersets = minimal closed proper
  // supersets ("specialize").
  std::span<const uint32_t> Subsets(uint32_t node) const {
    return {subsets_.data() + subset_begin_[node],
            subset_begin_[node + 1] - subset_begin_[node]};
  }
  std::span<const uint32_t> Supersets(uint32_t node) const {
    return {supersets_.data() + superset_begin_[node],
            superset_begin_[node + 1] - superset_begin_[node]};
  }

  // Node whose itemset equals `s`, or kNotFound.
  uint32_t FindNode(const Itemset& s) const;

  // True when `subset` ⊆ the node's itemset.
  bool NodeContains(uint32_t node, const Itemset& subset) const;

  // Greedy downward walk: starting from `start` (which must contain
  // `subset`), repeatedly steps to the first covered subset still containing
  // `subset`; the node where no step remains is returned. Under the
  // exactness precondition above this is closure(subset)'s node, so its
  // support is supp(subset).
  uint32_t DescendToClosure(uint32_t start, const Itemset& subset) const;

  // Resident bytes of the arenas (capacity-based), for budget charging.
  size_t MemoryFootprint() const;

 private:
  struct IndexSlot {
    uint64_t hash = 0;
    uint32_t node = kNotFound;  // kNotFound doubles as the empty marker
  };

  void BuildNodeIndex();

  std::vector<ItemId> item_pool_;
  std::vector<uint32_t> node_item_begin_;  // node_count() + 1 offsets
  std::vector<uint64_t> support_;

  std::vector<uint32_t> subset_begin_;  // CSR over subsets_
  std::vector<uint32_t> subsets_;
  std::vector<uint32_t> superset_begin_;  // CSR over supersets_
  std::vector<uint32_t> supersets_;

  // Open-addressed exact-match index over the pooled node itemsets (the
  // FlatItemsetIndex idiom, hand-rolled because keys live in the pool, not
  // in caller-owned Itemset vectors).
  std::vector<IndexSlot> index_slots_;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_CONCEPT_LATTICE_H_
