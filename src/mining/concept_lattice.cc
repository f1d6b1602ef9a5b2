#include "mining/concept_lattice.h"

#include <algorithm>
#include <string>

#include "util/run_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// FNV-1a over an id span — must hash identically to ItemsetHash so FindNode
// probes and pool-resident keys agree.
uint64_t SpanHash(const ItemId* ids, size_t count) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < count; ++i) {
    h ^= ids[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool SpanEquals(const ItemId* a, size_t a_count, const Itemset& b) {
  if (a_count != b.size()) return false;
  return std::equal(a, a + a_count, b.begin());
}

// a ⊆ b over sorted spans.
bool SpanIsSubset(const ItemId* a, size_t a_count, const ItemId* b,
                  size_t b_count) {
  if (a_count > b_count) return false;
  size_t j = 0;
  for (size_t i = 0; i < a_count; ++i) {
    while (j < b_count && b[j] < a[i]) ++j;
    if (j == b_count || b[j] != a[i]) return false;
    ++j;
  }
  return true;
}

// Smallest power-of-two slot count keeping load factor under ~0.7 (the
// FlatItemsetIndex policy).
size_t SlotCountFor(size_t entries) {
  size_t slots = 16;
  while (slots * 7 < entries * 10) slots *= 2;
  return slots;
}

// Poll cadence inside the covering-edge fan-out: one RunContext check per
// this many processed nodes keeps governance latency bounded without putting
// an atomic load in the inner key-list scan.
constexpr size_t kPollStride = 64;

}  // namespace

uint32_t ConceptLattice::FindNode(const Itemset& s) const {
  if (index_slots_.empty()) return kNotFound;
  const uint64_t hash = SpanHash(s.data(), s.size());
  const size_t mask = index_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_slots_[i];
    if (slot.node == kNotFound) return kNotFound;
    if (slot.hash == hash) {
      LatticeSpan<ItemId> items = NodeItems(slot.node);
      if (SpanEquals(items.ptr, items.count, s)) return slot.node;
    }
  }
}

bool ConceptLattice::NodeContains(uint32_t node, const Itemset& subset) const {
  LatticeSpan<ItemId> items = NodeItems(node);
  return SpanIsSubset(subset.data(), subset.size(), items.ptr, items.count);
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
    LatticeSpan<ItemId> items = NodeItems(node);
    const uint64_t hash = SpanHash(items.ptr, items.count);
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

  // Key lists: every non-empty node is listed once, under its key item —
  // the item of its own that the fewest nodes carry, smallest id on ties.
  // If u ⊊ v then key(u) ∈ v, so v finds every proper subset by scanning
  // only the key lists of its own items. Each list runs by size ascending,
  // so a scan stops at the first node no smaller than v. Exact on any
  // family of distinct itemsets: it needs neither intersection-closure (a
  // capped family holds pseudo-closed sets at the cap) nor any support
  // order.
  std::vector<uint32_t> item_node_count(item_bound, 0);
  for (uint32_t node = 0; node < n; ++node) {
    for (ItemId id : lattice.NodeItems(node)) ++item_node_count[id];
  }
  const auto key_item = [&](uint32_t node) {
    LatticeSpan<ItemId> items = lattice.NodeItems(node);
    ItemId key = items[0];
    for (ItemId id : items) {
      if (item_node_count[id] < item_node_count[key]) key = id;
    }
    return key;
  };
  std::vector<uint32_t> key_begin(item_bound + 1, 0);
  for (uint32_t node = 0; node < n; ++node) {
    if (!lattice.NodeItems(node).empty()) ++key_begin[key_item(node) + 1];
  }
  for (size_t i = 1; i < key_begin.size(); ++i) {
    key_begin[i] += key_begin[i - 1];
  }
  std::vector<uint32_t> keyed(key_begin[item_bound]);
  {
    std::vector<uint32_t> cursor(key_begin.begin(), key_begin.end() - 1);
    for (uint32_t node = 0; node < n; ++node) {
      if (lattice.NodeItems(node).empty()) continue;
      keyed[cursor[key_item(node)]++] = node;
    }
  }
  for (size_t id = 0; id < item_bound; ++id) {
    std::sort(keyed.begin() + key_begin[id], keyed.begin() + key_begin[id + 1],
              [&lattice](uint32_t a, uint32_t b) {
                return lattice.NodeItems(a).count < lattice.NodeItems(b).count;
              });
  }

  // Covering-edge fan-out. Work is sharded by a node-id stride; covers[v]
  // depends only on v, so the shard assignment cannot influence output. For
  // node v the key-list scan above yields its proper subsets; the covers are
  // the maximal ones: scanning candidates largest-first, a candidate
  // contained in an already chosen cover is dominated, anything else starts
  // a new cover (every non-maximal candidate is inside some maximal one, so
  // the check against chosen covers alone is sufficient).
  std::vector<std::vector<uint32_t>> covers(n);
  const size_t workers = std::max<size_t>(1, maras::EffectiveThreads(num_threads, n));
  const size_t shards = std::min<size_t>(n, workers * 4);
  maras::Status fan_status = maras::TryParallelFor(
      num_threads, shards, ctx, [&](size_t shard) -> maras::Status {
        std::vector<uint32_t> candidates;
        size_t since_poll = 0;
        for (uint32_t v = static_cast<uint32_t>(shard); v < n;
             v += static_cast<uint32_t>(shards)) {
          if (++since_poll >= kPollStride) {
            since_poll = 0;
            MARAS_RETURN_IF_ERROR(ctx.Check());
          }
          LatticeSpan<ItemId> v_items = lattice.NodeItems(v);
          candidates.clear();
          for (ItemId id : v_items) {
            for (uint32_t k = key_begin[id]; k < key_begin[id + 1]; ++k) {
              const uint32_t u = keyed[k];
              LatticeSpan<ItemId> u_items = lattice.NodeItems(u);
              if (u_items.count >= v_items.count) break;
              if (SpanIsSubset(u_items.ptr, u_items.count, v_items.ptr,
                               v_items.count)) {
                candidates.push_back(u);
              }
            }
          }
          // Largest-first, id ascending within a size — deterministic and
          // makes the domination check against chosen covers complete.
          std::sort(candidates.begin(), candidates.end(),
                    [&lattice](uint32_t a, uint32_t b) {
                      const size_t sa = lattice.NodeItems(a).count;
                      const size_t sb = lattice.NodeItems(b).count;
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
          std::vector<uint32_t>& chosen = covers[v];
          for (uint32_t u : candidates) {
            LatticeSpan<ItemId> u_items = lattice.NodeItems(u);
            bool dominated = false;
            for (uint32_t w : chosen) {
              LatticeSpan<ItemId> w_items = lattice.NodeItems(w);
              if (SpanIsSubset(u_items.ptr, u_items.count, w_items.ptr,
                               w_items.count)) {
                dominated = true;
                break;
              }
            }
            if (!dominated) chosen.push_back(u);
          }
          std::sort(chosen.begin(), chosen.end());
        }
        return maras::Status::OK();
      });
  if (!fan_status.ok()) {
    return maras::WithContext(fan_status, "lattice-build");
  }

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
  {
    std::vector<uint32_t> cursor(lattice.superset_begin_.begin(),
                                 lattice.superset_begin_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      for (uint32_t u : covers[v]) lattice.supersets_[cursor[u]++] = v;
    }
  }
  MARAS_RETURN_IF_ERROR(
      ctx.Charge((lattice.subsets_.size() + lattice.supersets_.size() + 2 * n +
                  2) *
                 sizeof(uint32_t)));
  return lattice;
}

}  // namespace maras::mining
