#ifndef MARAS_SERVE_QUERY_ENGINE_H_
#define MARAS_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ranking.h"
#include "serve/snapshot_reader.h"
#include "util/statusor.h"

namespace maras::serve {

// Read-side API over one validated snapshot. The engine pins its snapshot
// through the shared_ptr, so queries stay valid while the SnapshotStore
// swings to newer generations underneath.
//
// Answers are definitionally byte-identical to querying the analyzer output
// the snapshot was built from: signals are stored in rank order (top-k is a
// prefix), postings are the exact derivation from the target rules, and
// Materialize rebuilds the analyzer's own value types bit-for-bit (supports,
// confidences and scores round-trip as raw IEEE-754).
class QueryEngine {
 public:
  // Builds the name→item index (names borrow from the snapshot).
  static maras::StatusOr<QueryEngine> Create(
      std::shared_ptr<const SignalSnapshot> snapshot);

  const SignalSnapshot& snapshot() const { return *snapshot_; }

  // The first min(k, signal_count) signal indices — rank order is storage
  // order.
  std::vector<uint32_t> TopK(uint32_t k) const;

  // Item id of `name`, or NotFound.
  maras::StatusOr<uint32_t> FindItem(std::string_view name) const;

  // Ascending indices of the signals whose target mentions `name` as a
  // drug / an ADR. NotFound for an unknown name; a known name of the other
  // domain simply has no postings on this side and yields an empty list.
  maras::StatusOr<std::vector<uint32_t>> SignalsForDrug(
      std::string_view name) const;
  maras::StatusOr<std::vector<uint32_t>> SignalsForAdr(
      std::string_view name) const;

  // Drill-down: primary ids of the reports supporting `signal`'s target.
  maras::StatusOr<std::vector<uint64_t>> SupportingReportIds(
      uint32_t signal) const;

  // Lattice drill-down: signals one covering step up (fewer drugs, same
  // ADRs) or down from `signal`, in ascending index order. Every snapshot
  // carries this navigation for every signal.
  maras::StatusOr<std::vector<uint32_t>> Generalize(uint32_t signal) const;
  maras::StatusOr<std::vector<uint32_t>> Specialize(uint32_t signal) const;

  // Full analyzer-side reconstruction of one signal.
  maras::StatusOr<core::RankedMcac> Materialize(uint32_t signal) const;

 private:
  explicit QueryEngine(std::shared_ptr<const SignalSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  maras::StatusOr<std::vector<uint32_t>> SignalsForItem(
      std::string_view name, mining::ItemDomain side) const;

  std::shared_ptr<const SignalSnapshot> snapshot_;
  // Keys view into the snapshot's string section; the shared_ptr above
  // keeps them alive.
  std::unordered_map<std::string_view, uint32_t> item_index_;
};

}  // namespace maras::serve

#endif  // MARAS_SERVE_QUERY_ENGINE_H_
