#include "faers/validate.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace maras::faers {

size_t ValidationReport::error_count() const {
  size_t count = 0;
  for (const auto& finding : findings) {
    count += finding.severity == FindingSeverity::kError;
  }
  return count;
}

namespace {

// Reports older than this are flagged as a likely data-entry artifact.
constexpr double kMaxPlausibleAge = 120.0;

bool LooksLikeCountryCode(const std::string& code) {
  if (code.empty()) return true;  // unreported is fine
  if (code.size() != 2) return false;
  return std::isupper(static_cast<unsigned char>(code[0])) &&
         std::isupper(static_cast<unsigned char>(code[1]));
}

// Whole years of `years` for a message: truncated as an int cast would,
// without the undefined behaviour of casting a value outside int range.
std::string WholeYears(double years) {
  if (std::fabs(years) < 1e9) return std::to_string(static_cast<int>(years));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", years);
  return buf;
}

}  // namespace

ValidationReport ValidateDataset(const QuarterDataset& dataset,
                                 const ValidationOptions& options) {
  ValidationReport report;
  report.reports_checked = dataset.reports.size();
  auto add = [&](FindingSeverity severity, const char* check,
                 std::string detail, uint64_t primary_id) {
    report.findings.push_back(
        ValidationFinding{severity, check, std::move(detail), primary_id});
  };

  if (dataset.quarter < 1 || dataset.quarter > 4) {
    add(FindingSeverity::kError, "bad-quarter",
        "quarter must be 1..4, got " + std::to_string(dataset.quarter), 0);
  }

  std::unordered_set<uint64_t> seen_primary;
  std::unordered_map<uint64_t, uint32_t> max_version;
  for (const Report& r : dataset.reports) {
    const uint64_t pid = r.primary_id();
    if (r.case_id == 0) {
      add(FindingSeverity::kError, "missing-caseid",
          "report without a case id", pid);
    }
    if (!seen_primary.insert(pid).second) {
      add(FindingSeverity::kError, "duplicate-primaryid",
          "primary id appears more than once", pid);
    }
    if (r.case_version == 0) {
      add(FindingSeverity::kError, "bad-caseversion",
          "case version must start at 1", pid);
    }
    if (r.drugs.empty()) {
      add(FindingSeverity::kWarning, "no-drugs",
          "report lists no medications", pid);
    }
    if (r.reactions.empty()) {
      add(FindingSeverity::kWarning, "no-reactions",
          "report lists no adverse reactions", pid);
    }
    if (r.age > kMaxPlausibleAge) {
      add(FindingSeverity::kWarning, "implausible-age",
          "age " + WholeYears(r.age) + " exceeds " +
              WholeYears(kMaxPlausibleAge),
          pid);
    }
    if (r.drugs.size() > options.max_plausible_drugs) {
      add(FindingSeverity::kWarning, "too-many-drugs",
          std::to_string(r.drugs.size()) + " drug entries", pid);
    }
    for (NameId name : r.drugs) {
      if (dataset.Name(name).empty()) {
        add(FindingSeverity::kWarning, "empty-drug-name",
            "blank medicinal product string", pid);
        break;
      }
    }
    for (NameId pt : r.reactions) {
      if (dataset.Name(pt).empty()) {
        add(FindingSeverity::kWarning, "empty-reaction",
            "blank reaction preferred term", pid);
        break;
      }
    }
    if (options.check_country_codes && !LooksLikeCountryCode(r.country)) {
      add(FindingSeverity::kWarning, "bad-country-code",
          "occr_country '" + r.country + "' is not a two-letter code", pid);
    }
    auto [it, inserted] = max_version.emplace(r.case_id, r.case_version);
    if (!inserted && r.case_version == it->second) {
      add(FindingSeverity::kError, "conflicting-version",
          "two reports share case " + std::to_string(r.case_id) +
              " version " + std::to_string(r.case_version),
          pid);
    } else if (!inserted && r.case_version > it->second) {
      it->second = r.case_version;
    }
  }
  return report;
}

maras::Status EnforceValidation(const ValidationReport& validation,
                                const IngestOptions& options,
                                IngestReport* report) {
  if (options.policy == IngestPolicy::kStrict) {
    for (const ValidationFinding& finding : validation.findings) {
      if (finding.severity != FindingSeverity::kError) continue;
      return maras::Status::FailedPrecondition(
          "validation failed [" + finding.check + "]: " + finding.detail +
          (finding.primary_id != 0
               ? " (primaryid " + std::to_string(finding.primary_id) + ")"
               : ""));
    }
    return maras::Status::OK();
  }
  size_t errors = validation.error_count();
  if (report != nullptr) {
    for (const ValidationFinding& finding : validation.findings) {
      if (finding.severity != FindingSeverity::kError) continue;
      report->warnings.push_back(
          "validation [" + finding.check + "]: " + finding.detail +
          (finding.primary_id != 0
               ? " (primaryid " + std::to_string(finding.primary_id) + ")"
               : ""));
    }
  }
  // With nothing checked, any error is dataset-level and unusable; otherwise
  // tolerate errors up to the configured fraction of checked reports.
  if (errors > 0 &&
      (validation.reports_checked == 0 ||
       static_cast<double>(errors) /
               static_cast<double>(validation.reports_checked) >
           options.max_bad_row_fraction)) {
    return maras::Status::FailedPrecondition(
        std::to_string(errors) + " validation errors across " +
        std::to_string(validation.reports_checked) +
        " reports exceeds the error budget of " +
        std::to_string(options.max_bad_row_fraction));
  }
  return maras::Status::OK();
}

}  // namespace maras::faers
