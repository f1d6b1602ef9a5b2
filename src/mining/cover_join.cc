#include "mining/cover_join.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/run_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// Poll cadence inside the covering-edge fan-out: one RunContext check per
// this many processed sets keeps governance latency bounded without putting
// an atomic load in the inner key-list scan.
constexpr size_t kPollStride = 64;

}  // namespace

maras::StatusOr<std::vector<std::vector<uint32_t>>> CoveringSubsets(
    std::span<const std::span<const ItemId>> sets, ItemId item_bound,
    size_t num_threads, const RunContext& ctx) {
  const auto n = static_cast<uint32_t>(sets.size());

  // Key lists: every non-empty set is listed once, under its key item —
  // the item of its own that the fewest sets carry, smallest id on ties.
  // If u ⊊ v then key(u) ∈ v, so v finds every proper subset by scanning
  // only the key lists of its own items. Each list runs by size ascending,
  // so a scan stops at the first set no smaller than v. Exact on any
  // family of distinct sets: it needs neither intersection-closure (a
  // capped closed family holds pseudo-closed sets at the cap) nor any
  // support order.
  std::vector<uint32_t> item_set_count(item_bound, 0);
  for (std::span<const ItemId> items : sets) {
    for (ItemId id : items) ++item_set_count[id];
  }
  const auto key_item = [&](uint32_t v) {
    ItemId key = sets[v][0];
    for (ItemId id : sets[v]) {
      if (item_set_count[id] < item_set_count[key]) key = id;
    }
    return key;
  };
  std::vector<uint32_t> key_begin(size_t{item_bound} + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    if (!sets[v].empty()) ++key_begin[key_item(v) + 1];
  }
  std::partial_sum(key_begin.begin(), key_begin.end(), key_begin.begin());
  std::vector<uint32_t> keyed(key_begin[item_bound]);
  std::vector<uint32_t> cursor(key_begin.begin(), key_begin.end() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    if (!sets[v].empty()) keyed[cursor[key_item(v)]++] = v;
  }
  for (size_t id = 0; id < item_bound; ++id) {
    std::sort(keyed.begin() + key_begin[id], keyed.begin() + key_begin[id + 1],
              [&sets](uint32_t a, uint32_t b) {
                return sets[a].size() < sets[b].size();
              });
  }

  // One 64-bit signature per set (bit id % 64 for each item): u ⊆ w needs
  // sig(u) ⊆ sig(w), so one AND rejects most non-subsets before the
  // merge walk.
  std::vector<uint64_t> signature(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (ItemId id : sets[v]) signature[v] |= uint64_t{1} << (id % 64);
  }
  const auto is_subset = [&](uint32_t u, uint32_t w) {
    return (signature[u] & ~signature[w]) == 0 &&
           SpanIsSubset(sets[u], sets[w]);
  };

  // Covering-edge fan-out. Work is sharded by a set-id stride; covers[v]
  // depends only on v, so the shard assignment cannot influence output. For
  // set v the key-list scan above yields its proper subsets; the covers are
  // the maximal ones: scanning candidates largest-first, a candidate
  // contained in an already chosen cover is dominated, anything else starts
  // a new cover (every non-maximal candidate is inside some maximal one, so
  // the check against chosen covers alone is sufficient).
  std::vector<std::vector<uint32_t>> covers(n);
  const size_t workers =
      std::max<size_t>(1, maras::EffectiveThreads(num_threads, n));
  const size_t shards = std::min<size_t>(n, workers * 4);
  const maras::Status fanned = maras::TryParallelFor(
      num_threads, shards, ctx, [&](size_t shard) -> maras::Status {
        std::vector<uint32_t> candidates;
        size_t since_poll = 0;
        for (uint32_t v = static_cast<uint32_t>(shard); v < n;
             v += static_cast<uint32_t>(shards)) {
          if (++since_poll >= kPollStride) {
            since_poll = 0;
            MARAS_RETURN_IF_ERROR(ctx.Check());
          }
          candidates.clear();
          for (ItemId id : sets[v]) {
            for (uint32_t k = key_begin[id]; k < key_begin[id + 1]; ++k) {
              const uint32_t u = keyed[k];
              if (sets[u].size() >= sets[v].size()) break;
              if (is_subset(u, v)) candidates.push_back(u);
            }
          }
          // Largest-first, id ascending within a size — deterministic and
          // makes the domination check against chosen covers complete.
          std::sort(candidates.begin(), candidates.end(),
                    [&sets](uint32_t a, uint32_t b) {
                      return std::pair(sets[b].size(), a) <
                             std::pair(sets[a].size(), b);
                    });
          std::vector<uint32_t>& chosen = covers[v];
          for (uint32_t u : candidates) {
            if (std::none_of(chosen.begin(), chosen.end(),
                             [&](uint32_t w) { return is_subset(u, w); })) {
              chosen.push_back(u);
            }
          }
          std::sort(chosen.begin(), chosen.end());
        }
        return maras::Status::OK();
      });
  if (!fanned.ok()) return fanned;
  return covers;
}

}  // namespace maras::mining
