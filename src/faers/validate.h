#ifndef MARAS_FAERS_VALIDATE_H_
#define MARAS_FAERS_VALIDATE_H_

#include <string>
#include <vector>

#include "faers/ingest.h"
#include "faers/report.h"
#include "util/status.h"

namespace maras::faers {

// Dataset-quality validation run before analysis — the checks a production
// ingestion pipeline applies to each incoming quarterly extract. Findings
// are graded: errors make the extract unusable as-is (duplicate primary
// ids, malformed identity); warnings flag records the preprocessor will
// drop or that look suspicious (no drugs, no reactions, implausible age,
// unknown country codes).
enum class FindingSeverity { kWarning, kError };

struct ValidationFinding {
  FindingSeverity severity = FindingSeverity::kWarning;
  std::string check;       // stable identifier, e.g. "duplicate-primaryid"
  std::string detail;      // human-readable context
  uint64_t primary_id = 0; // offending report, 0 for dataset-level findings
};

struct ValidationReport {
  std::vector<ValidationFinding> findings;
  size_t reports_checked = 0;

  bool ok() const { return error_count() == 0; }
  size_t error_count() const;
};

struct ValidationOptions {
  // Reports with more drugs than this are flagged (data-entry artifacts;
  // FAERS has reports listing an entire formulary).
  size_t max_plausible_drugs = 60;
  bool check_country_codes = true;
};

ValidationReport ValidateDataset(const QuarterDataset& dataset,
                                 const ValidationOptions& options = {});

// Applies the ingestion recovery policy to a validation outcome: under
// kStrict any error finding fails the extract (FailedPrecondition naming the
// first offender); under kQuarantine error findings are recorded
// as warnings in `report` (when non-null) and the extract passes unless the
// error fraction — errors / reports_checked — exceeds
// `options.max_bad_row_fraction`. Warning-grade findings never fail any
// policy.
maras::Status EnforceValidation(const ValidationReport& validation,
                                const IngestOptions& options,
                                IngestReport* report = nullptr);

}  // namespace maras::faers

#endif  // MARAS_FAERS_VALIDATE_H_
