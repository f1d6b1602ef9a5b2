#ifndef MARAS_TESTS_ORACLES_SNAPSHOT_COVERS_H_
#define MARAS_TESTS_ORACLES_SNAPSHOT_COVERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "serve/snapshot_index.h"

namespace maras::serve {

// Reference for the navigation lists of DeriveSnapshotIndex, by the
// quadratic same-ADR scan the library used before its cover join: signals
// are grouped by ADR set, every pair in a group is tested for a proper
// drug-set subset, and a candidate below another candidate is dropped.
// Returns each signal's generalizations, ascending. It needs no
// distinctness: two equal targets never cover each other, and both cover
// a target that contains them.
std::vector<std::vector<uint32_t>> SameAdrCoversByScan(
    std::span<const TargetIds> targets);

}  // namespace maras::serve

#endif  // MARAS_TESTS_ORACLES_SNAPSHOT_COVERS_H_
