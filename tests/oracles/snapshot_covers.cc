#include "tests/oracles/snapshot_covers.h"

#include <algorithm>

namespace maras::serve {
namespace {

// True iff `a` is a proper subset of `b`; both strictly increasing.
bool IsProperSubset(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  if (a.size() >= b.size()) return false;
  size_t j = 0;
  for (uint32_t id : a) {
    while (j < b.size() && b[j] < id) ++j;
    if (j == b.size() || b[j] != id) return false;
    ++j;
  }
  return true;
}

}  // namespace

std::vector<std::vector<uint32_t>> SameAdrCoversByScan(
    std::span<const TargetIds> targets) {
  const auto n = static_cast<uint32_t>(targets.size());
  std::vector<std::vector<uint32_t>> generalizations(n);

  // t generalizes s iff both target the same ADR set, t's drug set is a
  // proper subset of s's, and no third same-ADR signal sits strictly
  // between them. Grouping by ADR set keeps the quadratic cover scan to
  // same-consequent candidates.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::ranges::stable_sort(order, [&](uint32_t a, uint32_t b) {
    return std::ranges::lexicographical_compare(targets[a].adrs,
                                                targets[b].adrs);
  });
  std::vector<uint32_t> below;
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    end = begin + 1;
    while (end < n && std::ranges::equal(targets[order[end]].adrs,
                                         targets[order[begin]].adrs)) {
      ++end;
    }
    for (size_t i = begin; i < end; ++i) {
      const std::span<const uint32_t> drugs_s = targets[order[i]].drugs;
      below.clear();
      for (size_t j = begin; j < end; ++j) {
        if (IsProperSubset(targets[order[j]].drugs, drugs_s)) {
          below.push_back(order[j]);
        }
      }
      std::vector<uint32_t>& gen = generalizations[order[i]];
      for (uint32_t t : below) {
        if (std::ranges::none_of(below, [&](uint32_t u) {
              return IsProperSubset(targets[t].drugs, targets[u].drugs);
            })) {
          gen.push_back(t);
        }
      }
      std::ranges::sort(gen);
    }
  }
  return generalizations;
}

}  // namespace maras::serve
