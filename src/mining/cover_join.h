#ifndef MARAS_MINING_COVER_JOIN_H_
#define MARAS_MINING_COVER_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mining/itemset.h"
#include "util/statusor.h"

namespace maras {
struct RunContext;
}  // namespace maras

namespace maras::mining {

// a ⊆ b over strictly increasing spans.
inline bool SpanIsSubset(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() > b.size()) return false;
  size_t j = 0;
  for (ItemId id : a) {
    while (j < b.size() && b[j] < id) ++j;
    if (j == b.size() || b[j] != id) return false;
    ++j;
  }
  return true;
}

// The covering (Hasse) relation of a family of sets under strict inclusion,
// by a key-list containment join: covers[v] holds, ascending, every u with
// sets[u] ⊊ sets[v] and no set of the family strictly between them. The
// one cover algorithm of the library: the concept lattice's edges and the
// snapshot's navigation lists both come from it.
//
// Preconditions: fewer than 2^32 sets, each strictly increasing with every
// id below `item_bound`, and the sets pairwise distinct. Distinctness is
// load-bearing: of two equal sets inside a larger one, the domination check
// (non-strict containment in a chosen cover) keeps only the first as a
// cover. The empty set, when the family holds it, is never a cover.
//
// The per-set fan-out runs on `num_threads` workers and polls `ctx` at a
// bounded interval; the result is byte-identical at any thread count. Fails
// only when `ctx` trips (cancellation, deadline, memory budget).
maras::StatusOr<std::vector<std::vector<uint32_t>>> CoveringSubsets(
    std::span<const std::span<const ItemId>> sets, ItemId item_bound,
    size_t num_threads, const RunContext& ctx);

}  // namespace maras::mining

#endif  // MARAS_MINING_COVER_JOIN_H_
