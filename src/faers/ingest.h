#ifndef MARAS_FAERS_INGEST_H_
#define MARAS_FAERS_INGEST_H_

#include <cstddef>
#include <string>
#include <vector>

namespace maras::faers {

// ---------------------------------------------------------------------------
// Ingestion recovery policy. Real FAERS quarterly extracts are dirty —
// truncated rows, embedded delimiters, orphaned DRUG/REAC rows, duplicate
// primaryids, garbage numerics — and a surveillance service cannot afford to
// lose a whole quarter to one bad line. Every reader in the faers layer
// threads an IngestPolicy:
//
//   kStrict      fail fast on the first malformed row (the reproduction
//                default: benches and recorded experiments need input to be
//                exactly what the generator wrote).
//   kQuarantine  skip malformed rows and keep going, aborting only when the
//                bad-row fraction exceeds IngestOptions::max_bad_row_fraction,
//                and capture every rejected row with per-row diagnostics
//                (file, line, column, reason) for audit.
// ---------------------------------------------------------------------------
enum class IngestPolicy { kStrict, kQuarantine };

// Root-cause classification of a rejected row. kCollateral marks rows that
// were themselves well-formed but referenced a rejected parent (DRUG/REAC
// rows of a quarantined DEMO row) — kept distinct so quarantine accounting
// can match injected faults one-to-one.
enum class RowFault {
  kMalformedRow,        // wrong field count (truncation, embedded delimiter)
  kBadNumeric,          // unparseable caseid / caseversion / primaryid / age
  kBadCode,             // unknown rept_cod or sex code
  kDuplicatePrimaryId,  // primaryid already ingested from an earlier row
  kOrphanRow,           // DRUG/REAC row whose primaryid has no DEMO row
  kCollateral,          // child row of a rejected DEMO row
};

// One rejected row, with enough context to audit or replay it.
struct QuarantinedRow {
  RowFault fault = RowFault::kMalformedRow;
  std::string file;    // source file, e.g. "DEMO14Q1.txt" (or "DEMO" in-memory)
  size_t line = 0;     // 1-based line number in that file
  std::string column;  // offending column name, empty for whole-row faults
  std::string reason;  // human-readable diagnosis
  std::string content; // verbatim row ('$'-joined), for forensics
};

struct IngestOptions {
  IngestPolicy policy = IngestPolicy::kStrict;
  // Quarantine abort threshold: if more than this fraction of
  // data rows is rejected, the extract is declared unusable (Corruption)
  // rather than silently mined from a sliver of data.
  double max_bad_row_fraction = 0.05;
  // Cap on captured QuarantinedRow entries (counters keep counting past it;
  // guards memory on pathological extracts). 0 means unlimited.
  size_t max_quarantined_rows = 10000;
};

// Accounting for one ingestion pass, propagated up through preprocessing and
// multi-quarter surveillance so a degraded run is visible, not silent.
struct IngestReport {
  size_t rows_seen = 0;       // data rows examined across all tables
  size_t rows_rejected = 0;   // rows dropped for any reason (incl. collateral)
  size_t collateral_rows = 0; // subset of rows_rejected: parent was rejected
  size_t reports_ingested = 0;
  // Populated under kQuarantine (subject to max_quarantined_rows).
  std::vector<QuarantinedRow> quarantined;
  // Set once the capture cap was hit (counters above remain exact).
  bool quarantine_overflow = false;
  // Quarter- or dataset-level notes: skipped quarters, exceeded caps,
  // validation downgrades. Never fatal on their own.
  std::vector<std::string> warnings;

  double rejected_fraction() const {
    return rows_seen == 0 ? 0.0
                          : static_cast<double>(rows_rejected) /
                                static_cast<double>(rows_seen);
  }

  // Appends a quarantined row respecting IngestOptions::max_quarantined_rows
  // (adds a single overflow warning the first time the cap is hit).
  void Quarantine(const IngestOptions& options, QuarantinedRow row);

  // Folds `other` into this report (multi-quarter aggregation).
  void Merge(const IngestReport& other);
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_INGEST_H_
