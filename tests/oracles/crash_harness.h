#ifndef MARAS_TESTS_ORACLES_CRASH_HARNESS_H_
#define MARAS_TESTS_ORACLES_CRASH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "faers/corruptor.h"
#include "faers/ingest.h"
#include "util/status.h"
#include "util/statusor.h"

namespace maras::faers {

// Rejected rows whose fault is a root cause, not collateral damage.
inline size_t RootFaultCount(const IngestReport& report) {
  return report.rows_rejected - report.collateral_rows;
}

// Row faults only (kMissingFile excluded): the RootFaultCount expected after
// re-ingesting `result.files`.
size_t RowFaultCount(const CorruptionResult& result);

// Writes the corrupted quarter into `directory` with FAERS naming, omitting
// (and deleting any stale copy of) every file listed in `result.missing`.
maras::Status WriteCorruptedQuarterToDir(const CorruptionResult& result,
                                         const std::string& directory,
                                         int year, int quarter);

// ---------------------------------------------------------------------------
// Torn-file primitives. A crash mid-write leaves a file cut at an arbitrary
// byte — inside a record, not at a tidy line boundary. These are shared by
// the ingestion robustness tests and the checkpoint crash harness (which
// tears snapshot files with TruncateFileAt to prove resume rejects them).
// Deliberately not FaultKinds: a torn tail can damage several trailing
// reports at once, which would break the Corruptor's one-fault-per-report
// accounting contract.
// ---------------------------------------------------------------------------

// Truncates the file at `path` to exactly `offset` bytes, simulating a torn
// write. `offset` must not exceed the current file size.
maras::Status TruncateFileAt(const std::string& path, size_t offset);

// A deterministically torn table: `content` cut at a seeded byte offset
// strictly inside a data row, so the surviving tail row is malformed.
struct TornFile {
  std::string content;              // the bytes that survive the tear
  size_t offset = 0;                // cut position within the original
  size_t first_lost_line = 0;       // 1-based line the cut lands in
  uint64_t damaged_primary_id = 0;  // leading primaryid of that line
};

// Picks a data row (never the header) and a cut point inside it from
// `seed`; same seed, same tear. Fails with InvalidArgument when `content`
// has no data row wide enough to cut mid-record.
maras::StatusOr<TornFile> TearFileMidRecord(const std::string& content,
                                            uint64_t seed);

}  // namespace maras::faers

#endif  // MARAS_TESTS_ORACLES_CRASH_HARNESS_H_
