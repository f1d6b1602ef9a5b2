#ifndef MARAS_SERVE_SNAPSHOT_INDEX_H_
#define MARAS_SERVE_SNAPSHOT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace maras::serve {

// One signal's target as the index derivation sees it: strictly increasing
// item ids, borrowed from whichever side owns them (the writer's rules or
// the ids a reader decoded).
struct TargetIds {
  std::span<const uint32_t> drugs;
  std::span<const uint32_t> adrs;
};

// The snapshot's derived sections. They carry no information of their own:
// every list is a pure function of the signal targets, so the writer
// encodes exactly what the reader re-derives to validate an image.
struct SnapshotIndex {
  // Per item: ascending indices of the signals whose target names it as a
  // drug / as an ADR.
  std::vector<std::vector<uint32_t>> drug_postings;
  std::vector<std::vector<uint32_t>> adr_postings;
  // Per signal: the signals one covering step up the concept lattice of
  // the stored targets (same ADR set, maximal proper-subset drug set), and
  // the inverse relation. Each list is ascending.
  std::vector<std::vector<uint32_t>> generalizations;
  std::vector<std::vector<uint32_t>> specializations;
};

// Derives the index of `targets` (rank order). Every id must be below
// `item_count`, no id may be a drug in one target and an ADR in another,
// no target may be empty, and the targets must be pairwise distinct (the
// cover join's precondition, mining/cover_join.h). The writer's targets
// are distinct rules; the reader validates all of it before deriving.
SnapshotIndex DeriveSnapshotIndex(std::span<const TargetIds> targets,
                                  size_t item_count);

}  // namespace maras::serve

#endif  // MARAS_SERVE_SNAPSHOT_INDEX_H_
