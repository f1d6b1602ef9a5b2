#ifndef MARAS_CORE_CHECKPOINT_H_
#define MARAS_CORE_CHECKPOINT_H_

#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/multi_quarter.h"
#include "core/ranking.h"
#include "faers/preprocess.h"
#include "mining/frequent_itemsets.h"
#include "util/statusor.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Atomic, checksummed pipeline checkpoints. After each multi-quarter stage
// (per-quarter ingest, closed-set mining, rule generation, MCAC ranking) the
// pipeline serializes a snapshot so a crashed run can resume instead of
// recomputing hours of mining. Guarantees:
//
//   * Atomicity: snapshots are published by write-to-temp + fsync + rename
//     (AtomicWriteStringToFile), so a crash mid-write leaves the previous
//     snapshot (or nothing), never a half-written one under the final name.
//   * Detection: every snapshot is framed with magic, format version, stage
//     name, payload size and an FNV-1a 64 checksum. A torn, truncated or
//     bit-flipped file is rejected as Corruption — naming the file and stage
//     — and the pipeline recomputes the stage from scratch.
//   * Fidelity: payload codecs (util/binary_io.h) round-trip every field
//     bit-exactly, doubles included, so a resumed run is byte-identical to
//     an uninterrupted one. The checkpoint tests assert this by comparing
//     re-encoded stage payloads.
// ---------------------------------------------------------------------------

// Version 2 dropped the per-report sex and age from the preprocess payload.
// A file of another version is rejected like any corrupt one, so its stage
// is recomputed.
inline constexpr uint32_t kCheckpointVersion = 2;

// FNV-1a 64-bit over `data`; the snapshot integrity checksum.
uint64_t Fnv1a64(std::string_view data);

// "<dir>/<stage>.ckpt" — stage names are restricted to [A-Za-z0-9._-] by the
// pipeline, so the stage is usable as a file name verbatim.
std::string CheckpointPath(const std::string& dir, const std::string& stage);

// Frames `payload` for `stage` and publishes it atomically under `dir`
// (creating the directory if needed).
maras::Status WriteCheckpoint(const std::string& dir, const std::string& stage,
                              const std::string& payload);

// Reads and verifies the snapshot for `stage`. NotFound when no snapshot
// exists; Corruption — with the file path and stage in the message — when
// the file fails any framing check (magic, version, stage, size, checksum).
maras::StatusOr<std::string> ReadCheckpoint(const std::string& dir,
                                            const std::string& stage);

// ---------------------------------------------------------------------------
// Stage payload codecs. Encoders are infallible (any in-memory value is
// encodable); decoders return Corruption on any structural violation and
// never read past the payload.
// ---------------------------------------------------------------------------

std::string EncodePreprocessResult(const faers::PreprocessResult& result);
maras::StatusOr<faers::PreprocessResult> DecodePreprocessResult(
    std::string_view payload);

// One per-quarter ingest stage: the outcome (accounting, skip reason) plus
// the preprocessed corpus when the quarter loaded.
struct QuarterCheckpoint {
  QuarterOutcome outcome;
  std::optional<faers::PreprocessResult> result;
};

std::string EncodeQuarterCheckpoint(const QuarterCheckpoint& quarter);
maras::StatusOr<QuarterCheckpoint> DecodeQuarterCheckpoint(
    std::string_view payload);
// Reads and decodes the "quarter-<label>" snapshot; one recorded for
// another quarter is Corruption.
maras::StatusOr<QuarterCheckpoint> ReadQuarterCheckpoint(
    const std::string& dir, const std::string& label);

std::string EncodeItemsetResult(const mining::FrequentItemsetResult& result);
maras::StatusOr<mining::FrequentItemsetResult> DecodeItemsetResult(
    std::string_view payload);

// The closed-mining stage: the closed family plus everything about the mine
// that downstream stages and the final report need (rule-space statistics
// are computed from the pre-filter frequent family, which is deliberately
// not persisted — the closed family is enough for every later stage).
struct ClosedCheckpoint {
  RuleSpaceStats stats;
  uint64_t min_support_used = 0;
  bool truncated = false;
  std::vector<std::string> notes;
  mining::FrequentItemsetResult closed;
};

std::string EncodeClosedCheckpoint(const ClosedCheckpoint& closed);
maras::StatusOr<ClosedCheckpoint> DecodeClosedCheckpoint(
    std::string_view payload);

// One worker's slice of the sharded frequent-itemset mine: which slice of
// the top-level fan-out it covered and under which parameters, plus the
// partial family it produced. The supervisor rejects a decoded shard whose
// parameters disagree with the plan (a stale file from an earlier run with
// different settings must not be merged), so the parameters travel inside
// the checksummed payload rather than only in the file name. The payload
// also ends in a tag naming the shard stride that cut the slice; a payload
// of another stride does not decode.
struct MineShardCheckpoint {
  uint64_t shard_index = 0;
  uint64_t shard_count = 1;
  uint64_t min_support = 0;
  uint64_t max_itemset_size = 0;
  mining::FrequentItemsetResult frequent;
};

std::string EncodeMineShardCheckpoint(const MineShardCheckpoint& shard);
maras::StatusOr<MineShardCheckpoint> DecodeMineShardCheckpoint(
    std::string_view payload);

std::string EncodeRules(const std::vector<DrugAdrRule>& rules);
maras::StatusOr<std::vector<DrugAdrRule>> DecodeRules(
    std::string_view payload);

std::string EncodeRankedMcacs(const std::vector<RankedMcac>& ranked);
maras::StatusOr<std::vector<RankedMcac>> DecodeRankedMcacs(
    std::string_view payload);

}  // namespace maras::core

#endif  // MARAS_CORE_CHECKPOINT_H_
