#ifndef MARAS_SERVE_SNAPSHOT_READER_H_
#define MARAS_SERVE_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.h"
#include "core/ranking.h"
#include "serve/bounded_view.h"
#include "serve/mapped_file.h"
#include "serve/snapshot_format.h"
#include "util/statusor.h"

namespace maras::serve {

// The u32 counts of the kMeta section. Lattice navigation covers every
// signal, so `lattice_nav` always equals `signals`.
struct SnapshotCounts {
  uint32_t signals = 0;
  uint32_t items = 0;
  uint32_t rules = 0;
  uint32_t levels = 0;
  uint32_t item_ids = 0;
  uint32_t postings = 0;
  uint32_t report_ids = 0;
  uint32_t string_bytes = 0;
  uint32_t lattice_nav = 0;
  uint32_t lattice_edges = 0;
};

// Decoded kSignals record (indices into sibling sections; see
// snapshot_format.h).
struct SignalRecord {
  uint32_t target_rule = 0;
  uint32_t first_level = 0;
  uint32_t level_count = 0;
  uint32_t report_offset = 0;
  uint32_t report_count = 0;
  double score = 0.0;
};

// Decoded kLevels record.
struct LevelRecord {
  uint32_t first_rule = 0;
  uint32_t rule_count = 0;
};

// A fully validated, memory-mapped (or in-memory) signal snapshot.
//
// Every byte of the backing file is treated as hostile until Open/From*
// has finished: framing (magic, version, section table, per-section FNV-1a
// checksums), geometry (counts × record sizes == section sizes) and
// semantics (cumulative pool offsets, index ranges, item domains, and the
// postings and lattice lists re-derived from the targets) are all verified
// eagerly, through BoundedView only, before the factory returns. A
// truncated, torn, bit-flipped or forged image yields a structured
// Corruption status — never a crash, never a partially usable object.
//
// After validation the accessors below still bounds-check (hostile *query*
// indices return InvalidArgument), but can no longer fail on the bytes
// themselves.
class SignalSnapshot {
 public:
  // Memory-maps and validates `path`.
  static maras::StatusOr<SignalSnapshot> OpenFile(const std::string& path);

  // Validates an owned in-memory image (tests, re-encode round-trips).
  static maras::StatusOr<SignalSnapshot> FromBytes(std::string bytes);

  // Validates a borrowed image; `bytes` must outlive the snapshot. This is
  // the fuzz entry point — no copy, no file.
  static maras::StatusOr<SignalSnapshot> FromView(std::string_view bytes);

  const SnapshotCounts& counts() const { return counts_; }
  const core::RuleSpaceStats& stats() const { return stats_; }

  // Item accessors. `item` must be < counts().items.
  maras::Status ItemName(uint32_t item, std::string_view* name) const;
  maras::Status Domain(uint32_t item, mining::ItemDomain* domain) const;

  // Record accessors by index.
  maras::Status Signal(uint32_t index, SignalRecord* out) const;
  maras::Status Level(uint32_t index, LevelRecord* out) const;
  maras::Status Rule(uint32_t index, core::DrugAdrRule* out) const;

  // Supporting report ids of one signal (drill-down), in stored order.
  maras::Status ReportIds(uint32_t signal, std::vector<uint64_t>* out) const;

  // Ascending signal indices whose target mentions `item` on `side`.
  maras::Status Postings(mining::ItemDomain side, uint32_t item,
                         std::vector<uint32_t>* out) const;

  // Ascending signal indices one covering step up (same ADRs, maximal
  // proper-subset drug set) or down the concept lattice from `signal`.
  maras::Status Generalizations(uint32_t signal,
                                std::vector<uint32_t>* out) const;
  maras::Status Specializations(uint32_t signal,
                                std::vector<uint32_t>* out) const;

  // Reconstructs signal `index` as the analyzer-side value type.
  maras::StatusOr<core::RankedMcac> Materialize(uint32_t index) const;

 private:
  SignalSnapshot() = default;

  // Runs the whole validation pipeline over `file` and fills the cached
  // section views/counts on success.
  maras::Status Init(BoundedView file);

  maras::Status ValidateItems() const;
  maras::Status ValidateRules() const;
  maras::Status ValidateSignals() const;
  // Postings and lattice navigation, against their derivation.
  maras::Status ValidateIndex() const;

  // Shared body of Generalizations/Specializations; `spec` picks the list.
  maras::Status LatticeList(uint32_t signal, bool spec,
                            std::vector<uint32_t>* out) const;

  // Backing storage; exactly one is active (both empty for FromView).
  MappedFile mapped_;
  std::unique_ptr<std::string> owned_;

  // Heap/mmap addresses are stable under move, so the views stay valid when
  // the snapshot moves out of its factory.
  BoundedView sections_[kSectionCount];
  SnapshotCounts counts_;
  core::RuleSpaceStats stats_;
};

// The writer-side inputs of a snapshot, rebuilt from its bytes.
struct ReconstructedInputs {
  mining::ItemDictionary items;
  std::vector<core::RankedMcac> signals;
  core::RuleSpaceStats stats;
  std::vector<std::vector<uint64_t>> report_ids;
};

// Rebuilds everything the writer was given, from the snapshot alone.
// Because the format is canonical, EncodeSignalSnapshot over the result
// reproduces the input image byte-for-byte — the round-trip property the
// fuzz harness and the reader tests enforce.
maras::StatusOr<ReconstructedInputs> ReconstructInputs(
    const SignalSnapshot& snapshot);

}  // namespace maras::serve

#endif  // MARAS_SERVE_SNAPSHOT_READER_H_
