// Differential fuzz harness for the cover join (mining/cover_join.h). The
// input decodes into a family of distinct sets over a small universe (every
// byte string is a valid family), and CoveringSubsets at 1, 2 and 8 threads
// must equal the brute-force Hasse diagram of strict inclusion: covers[v]
// holds, ascending, every non-empty u ⊊ v with no set strictly between.
// Any disagreement traps: a wrong cover silently misroutes lattice descents
// and snapshot navigation rather than crashing.
//
// Input layout:
//   [0]     universe size selector (2..12 items)
//   [1..]   one set per two bytes (little-endian bitmask over the
//           universe); a repeated set is skipped, so the family stays
//           distinct; at most 96 sets

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fuzz/fuzz_target.h"
#include "mining/cover_join.h"
#include "mining/itemset.h"
#include "util/run_context.h"

namespace {

using maras::mining::ItemId;

void Require(bool ok) {
  if (!ok) __builtin_trap();
}

bool IsProperSubmask(uint32_t a, uint32_t b) { return a != b && (a & b) == a; }

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 3) return 0;
  const uint32_t universe = 2 + data[0] % 11;  // 2..12
  const uint32_t full = (1u << universe) - 1;

  std::vector<uint32_t> masks;
  for (size_t i = 1; i + 1 < size && masks.size() < 96; i += 2) {
    const uint32_t mask = (data[i] | (uint32_t{data[i + 1]} << 8)) & full;
    if (std::find(masks.begin(), masks.end(), mask) == masks.end()) {
      masks.push_back(mask);
    }
  }
  std::vector<std::vector<ItemId>> family;
  for (uint32_t mask : masks) {
    std::vector<ItemId> items;
    for (uint32_t i = 0; i < universe; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    family.push_back(std::move(items));
  }
  const std::vector<std::span<const ItemId>> sets(family.begin(),
                                                  family.end());

  std::vector<std::vector<uint32_t>> want(masks.size());
  for (size_t v = 0; v < masks.size(); ++v) {
    for (size_t u = 0; u < masks.size(); ++u) {
      if (masks[u] == 0 || !IsProperSubmask(masks[u], masks[v])) continue;
      bool maximal = true;
      for (size_t w = 0; w < masks.size() && maximal; ++w) {
        maximal = !(IsProperSubmask(masks[u], masks[w]) &&
                    IsProperSubmask(masks[w], masks[v]));
      }
      if (maximal) want[v].push_back(static_cast<uint32_t>(u));
    }
  }
  const maras::RunContext ctx;
  for (size_t threads : {1, 2, 8}) {
    auto got = maras::mining::CoveringSubsets(sets, universe, threads, ctx);
    Require(got.ok());
    Require(*got == want);
  }
  return 0;
}
