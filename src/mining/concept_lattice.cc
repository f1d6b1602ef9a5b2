#include "mining/concept_lattice.h"

#include <algorithm>
#include <span>
#include <string>

#include "mining/cover_join.h"
#include "util/run_context.h"
#include "util/status.h"

namespace maras::mining {

namespace {

// FNV-1a over an id span — must hash identically to ItemsetHash so FindNode
// probes and pool-resident keys agree.
uint64_t SpanHash(std::span<const ItemId> ids) {
  uint64_t h = 1469598103934665603ULL;
  for (ItemId id : ids) {
    h ^= id;
    h *= 1099511628211ULL;
  }
  return h;
}

// Smallest power-of-two slot count keeping load factor under ~0.7 (the
// FlatItemsetIndex policy).
size_t SlotCountFor(size_t entries) {
  size_t slots = 16;
  while (slots * 7 < entries * 10) slots *= 2;
  return slots;
}

}  // namespace

uint32_t ConceptLattice::FindNode(const Itemset& s) const {
  if (index_slots_.empty()) return kNotFound;
  const uint64_t hash = SpanHash(s);
  const size_t mask = index_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_slots_[i];
    if (slot.node == kNotFound) return kNotFound;
    if (slot.hash == hash && std::ranges::equal(NodeItems(slot.node), s)) {
      return slot.node;
    }
  }
}

bool ConceptLattice::NodeContains(uint32_t node, const Itemset& subset) const {
  return SpanIsSubset(subset, NodeItems(node));
}

uint32_t ConceptLattice::DescendToClosure(uint32_t start,
                                          const Itemset& subset) const {
  uint32_t current = start;
  for (;;) {
    uint32_t next = kNotFound;
    for (uint32_t candidate : Subsets(current)) {
      if (NodeContains(candidate, subset)) {
        next = candidate;
        break;
      }
    }
    if (next == kNotFound) return current;
    current = next;
  }
}

size_t ConceptLattice::MemoryFootprint() const {
  return item_pool_.capacity() * sizeof(ItemId) +
         node_item_begin_.capacity() * sizeof(uint32_t) +
         support_.capacity() * sizeof(uint64_t) +
         (subset_begin_.capacity() + subsets_.capacity() +
          superset_begin_.capacity() + supersets_.capacity()) *
             sizeof(uint32_t) +
         index_slots_.capacity() * sizeof(IndexSlot);
}

void ConceptLattice::BuildNodeIndex() {
  const size_t n = support_.size();
  index_slots_.assign(SlotCountFor(n), IndexSlot{});
  const size_t mask = index_slots_.size() - 1;
  for (uint32_t node = 0; node < n; ++node) {
    const uint64_t hash = SpanHash(NodeItems(node));
    size_t i = hash & mask;
    // Node itemsets are unique within one closed family, so placement needs
    // no key compares.
    while (index_slots_[i].node != kNotFound) i = (i + 1) & mask;
    index_slots_[i] = IndexSlot{hash, node};
  }
}

maras::StatusOr<ConceptLattice> ConceptLattice::Build(
    const FrequentItemsetResult& closed, size_t num_threads,
    const RunContext& ctx) {
  const size_t n = closed.size();
  if (n >= kNotFound) {
    return maras::Status::InvalidArgument(
        "closed family of " + std::to_string(n) +
        " itemsets exceeds 32-bit lattice node indexing");
  }

  ConceptLattice lattice;
  size_t pool_size = 0;
  ItemId item_bound = 0;
  for (const FrequentItemset& fi : closed.itemsets()) {
    pool_size += fi.items.size();
    if (!fi.items.empty()) item_bound = std::max(item_bound, fi.items.back());
  }
  if (n > 0) item_bound += 1;
  if (pool_size >= static_cast<size_t>(kNotFound)) {
    return maras::Status::InvalidArgument(
        "closed family item pool exceeds 32-bit indexing");
  }
  lattice.item_pool_.reserve(pool_size);
  lattice.node_item_begin_.reserve(n + 1);
  lattice.support_.reserve(n);
  lattice.node_item_begin_.push_back(0);
  for (const FrequentItemset& fi : closed.itemsets()) {
    lattice.item_pool_.insert(lattice.item_pool_.end(), fi.items.begin(),
                              fi.items.end());
    lattice.node_item_begin_.push_back(
        static_cast<uint32_t>(lattice.item_pool_.size()));
    lattice.support_.push_back(fi.support);
  }
  lattice.BuildNodeIndex();
  MARAS_RETURN_IF_ERROR(ctx.Charge(lattice.MemoryFootprint()));

  std::vector<std::span<const ItemId>> node_sets(n);
  for (uint32_t node = 0; node < n; ++node) {
    node_sets[node] = lattice.NodeItems(node);
  }
  auto covered = CoveringSubsets(node_sets, item_bound, num_threads, ctx);
  if (!covered.ok()) {
    return maras::WithContext(covered.status(), "lattice-build");
  }
  const std::vector<std::vector<uint32_t>> covers = std::move(covered).value();

  // Serial CSR assembly in node order (deterministic bytes), then the
  // transpose for the specialize direction.
  size_t edge_total = 0;
  for (const std::vector<uint32_t>& c : covers) edge_total += c.size();
  lattice.subset_begin_.reserve(n + 1);
  lattice.subsets_.reserve(edge_total);
  lattice.subset_begin_.push_back(0);
  for (uint32_t v = 0; v < n; ++v) {
    lattice.subsets_.insert(lattice.subsets_.end(), covers[v].begin(),
                            covers[v].end());
    lattice.subset_begin_.push_back(
        static_cast<uint32_t>(lattice.subsets_.size()));
  }
  lattice.superset_begin_.assign(n + 1, 0);
  for (uint32_t u : lattice.subsets_) ++lattice.superset_begin_[u + 1];
  for (size_t i = 1; i <= n; ++i) {
    lattice.superset_begin_[i] += lattice.superset_begin_[i - 1];
  }
  lattice.supersets_.resize(edge_total);
  std::vector<uint32_t> cursor(lattice.superset_begin_.begin(),
                               lattice.superset_begin_.end() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u : covers[v]) lattice.supersets_[cursor[u]++] = v;
  }
  MARAS_RETURN_IF_ERROR(
      ctx.Charge((lattice.subsets_.size() + lattice.supersets_.size() + 2 * n +
                  2) *
                 sizeof(uint32_t)));
  return lattice;
}

}  // namespace maras::mining
