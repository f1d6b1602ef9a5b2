#ifndef MARAS_SERVE_SNAPSHOT_WRITER_H_
#define MARAS_SERVE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/ranking.h"
#include "mining/item_dictionary.h"
#include "mining/transaction_db.h"
#include "util/statusor.h"

namespace maras::serve {

// Everything a snapshot captures from one analysis run. `items` and
// `signals` are required; supporting report ids come from exactly one of
// two sources:
//   - `db` + `primary_ids`: derived for every target in one
//     core::SupportingReportLists pass (the normal build-from-analyzer
//     path), or
//   - `report_ids`: one precomputed list per signal (the re-encode path —
//     a reader can reconstruct its own inputs without the database).
struct SnapshotInputs {
  const mining::ItemDictionary* items = nullptr;
  const std::vector<core::RankedMcac>* signals = nullptr;
  core::RuleSpaceStats stats;

  const mining::TransactionDatabase* db = nullptr;
  const std::vector<uint64_t>* primary_ids = nullptr;

  const std::vector<std::vector<uint64_t>>* report_ids = nullptr;
};

// Encodes the one canonical snapshot image for `inputs` (see
// snapshot_format.h). The postings and the lattice navigation of every
// signal are derived from the signal targets (serve/snapshot_index.h) and
// always written. Inputs that cannot be represented — item ids outside
// the dictionary, domain-inconsistent rules, or anything overflowing the
// 32-bit arena — are InvalidArgument: the writer refuses to emit any file
// the reader would reject.
maras::StatusOr<std::string> EncodeSignalSnapshot(const SnapshotInputs& inputs);

}  // namespace maras::serve

#endif  // MARAS_SERVE_SNAPSHOT_WRITER_H_
