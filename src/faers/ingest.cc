#include "faers/ingest.h"

namespace maras::faers {

void IngestReport::Quarantine(const IngestOptions& options,
                              QuarantinedRow row) {
  if (options.max_quarantined_rows != 0 &&
      quarantined.size() >= options.max_quarantined_rows) {
    if (!quarantine_overflow) {
      quarantine_overflow = true;
      warnings.push_back("quarantine capture cap of " +
                         std::to_string(options.max_quarantined_rows) +
                         " reached; further rejects are counted only");
    }
    return;
  }
  quarantined.push_back(std::move(row));
}

void IngestReport::Merge(const IngestReport& other) {
  rows_seen += other.rows_seen;
  rows_rejected += other.rows_rejected;
  collateral_rows += other.collateral_rows;
  reports_ingested += other.reports_ingested;
  quarantined.insert(quarantined.end(), other.quarantined.begin(),
                     other.quarantined.end());
  quarantine_overflow = quarantine_overflow || other.quarantine_overflow;
  warnings.insert(warnings.end(), other.warnings.begin(),
                  other.warnings.end());
}

}  // namespace maras::faers
