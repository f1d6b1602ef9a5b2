#include "serve/snapshot_index.h"

#include <algorithm>
#include <iterator>

#include "mining/cover_join.h"
#include "util/logging.h"
#include "util/run_context.h"

namespace maras::serve {

SnapshotIndex DeriveSnapshotIndex(std::span<const TargetIds> targets,
                                  size_t item_count) {
  const auto n = static_cast<uint32_t>(targets.size());
  SnapshotIndex index;
  // Signal s is posted under every drug and every ADR of its target.
  // Signals iterate in rank order, so each list ascends.
  index.drug_postings.resize(item_count);
  index.adr_postings.resize(item_count);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t id : targets[s].drugs) index.drug_postings[id].push_back(s);
    for (uint32_t id : targets[s].adrs) index.adr_postings[id].push_back(s);
  }

  // t generalizes s iff both target the same ADR set and t's drug set is
  // a maximal proper subset of s's among those targets. These are the
  // covers of the family of target unions (drugs ∪ ADRs) whose two ends
  // carry equal ADR sets, so one containment join finds them:
  // - Items are typed drug or ADR, so a union splits back into its target;
  //   the targets are distinct, so the unions are, as the join requires.
  // - If t ⊊ u ⊊ s and t, s have the same ADR set, u has that ADR set too:
  //   no union lies strictly between t and s unless a same-ADR target
  //   does. So the filtered union covers are exactly the same-ADR drug-set
  //   covers.
  std::vector<uint32_t> pool;
  std::vector<size_t> begin{0};
  for (const TargetIds& target : targets) {
    std::ranges::merge(target.drugs, target.adrs, std::back_inserter(pool));
    begin.push_back(pool.size());
  }
  std::vector<std::span<const uint32_t>> unions(n);
  for (uint32_t s = 0; s < n; ++s) {
    unions[s] = std::span<const uint32_t>(pool).subspan(
        begin[s], begin[s + 1] - begin[s]);
  }
  // Serial and ungoverned: the default context never trips.
  auto covers = mining::CoveringSubsets(
      unions, static_cast<mining::ItemId>(item_count), 1, RunContext{});
  MARAS_CHECK(covers.ok()) << covers.status().ToString();
  index.generalizations = std::move(covers).value();
  for (uint32_t s = 0; s < n; ++s) {
    std::erase_if(index.generalizations[s], [&](uint32_t t) {
      return !std::ranges::equal(targets[t].adrs, targets[s].adrs);
    });
  }
  index.specializations.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t : index.generalizations[s]) {
      index.specializations[t].push_back(s);
    }
  }
  return index;
}

}  // namespace maras::serve
