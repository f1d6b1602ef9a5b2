#ifndef MARAS_FAERS_CORRUPTOR_H_
#define MARAS_FAERS_CORRUPTOR_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "faers/ascii_format.h"
#include "util/statusor.h"

namespace maras::faers {

// ---------------------------------------------------------------------------
// Deterministic corruption-injection harness. Given a clean quarter written
// by WriteAsciiQuarter and a seed, injects parameterized faults that mimic
// the damage seen in real FAERS extracts. The same seed and fault mix always
// produce byte-identical corrupted files, so recovery tests are exactly
// reproducible.
//
// Accounting contract (what the recovery invariants in the tests rely on):
//   - every row fault damages a distinct report (no two faults share a
//     primaryid), and never the row's leading primaryid field, so the
//     resilient reader can attribute each rejected row to its root cause;
//   - each injected row fault therefore produces exactly one root-cause
//     rejected row (rows_rejected - collateral_rows), with DRUG/REAC rows of
//     a rejected DEMO row classified as collateral, not as new faults;
//   - reports whose primaryid is NOT in `faulted_primary_ids` survive
//     quarantine re-ingestion byte-identically.
// ---------------------------------------------------------------------------

enum class FaultKind {
  kTruncateRow,         // cut a data row mid-line (drops >= 1 delimiter)
  kEmbeddedDelimiter,   // insert a stray '$' inside a field
  kDropColumn,          // remove one non-leading field from a row
  kReorderColumns,      // swap rept_cod and occr_country within a DEMO row
  kDuplicatePrimaryId,  // append a copy of an existing DEMO row
  kOrphanDrugRow,       // append a DRUG row with an unknown primaryid
  kOrphanReacRow,       // append a REAC row with an unknown primaryid
  kGarbageNumeric,      // replace a DEMO caseid with non-numeric garbage
  kMissingFile,         // drop one of the three files entirely (dir mode)
};

const char* FaultKindName(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kTruncateRow;
  size_t count = 1;
};

struct CorruptorConfig {
  uint64_t seed = 1;
  std::vector<FaultSpec> faults;
};

// One applied fault — the ground truth the recovery tests assert against.
struct InjectedFault {
  FaultKind kind = FaultKind::kTruncateRow;
  std::string file;         // e.g. "DEMO14Q1.txt"; file prefix for kMissingFile
  size_t line = 0;          // 1-based line damaged/appended; 0 for kMissingFile
  uint64_t primary_id = 0;  // report whose data was damaged; 0 when none
  std::string detail;
};

struct CorruptionResult {
  AsciiQuarterFiles files;
  std::vector<InjectedFault> faults;
  // File prefixes ("DEMO"/"DRUG"/"REAC") removed by kMissingFile.
  std::vector<std::string> missing;
  // Reports whose own rows were damaged; everything else must survive
  // quarantine re-ingestion untouched.
  std::set<uint64_t> faulted_primary_ids;
};

// A mix exercising every row-level fault kind `per_kind` times (the
// kMissingFile fault is excluded; it only makes sense in directory mode).
std::vector<FaultSpec> AllRowFaults(size_t per_kind);

class Corruptor {
 public:
  explicit Corruptor(CorruptorConfig config) : config_(std::move(config)) {}

  // Applies the configured faults to a clean quarter. Fails with
  // InvalidArgument when the quarter has too few rows to host the requested
  // faults under the one-fault-per-report contract.
  maras::StatusOr<CorruptionResult> Corrupt(const AsciiQuarterFiles& clean,
                                            int year, int quarter) const;

  const CorruptorConfig& config() const { return config_; }

 private:
  CorruptorConfig config_;
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_CORRUPTOR_H_
