#ifndef MARAS_FAERS_REPORT_H_
#define MARAS_FAERS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace maras::faers {

// Report type codes used by FAERS: expedited 15-day reports (EXP) are the
// manufacturer-mandated serious events the paper selects (Section 5.1).
enum class ReportType : uint8_t {
  kExpedited = 0,   // "EXP"
  kPeriodic = 1,    // "PER"
  kDirect = 2,      // "DIR"
};

std::string ReportTypeCode(ReportType type);
bool ParseReportType(std::string_view code, ReportType* out);

// Patient sex as reported.
enum class Sex : uint8_t { kUnknown = 0, kFemale = 1, kMale = 2 };
std::string SexCode(Sex sex);
bool ParseSex(std::string_view code, Sex* out);

// One individual safety report (one FAERS case version): the set of drugs
// the patient took and the set of adverse reactions observed, plus the
// demographic fields MARAS surfaces during drill-down.
struct Report {
  // FAERS primaryid = caseid concatenated with the version; we keep them
  // separate and join on output.
  uint64_t case_id = 0;
  uint32_t case_version = 1;
  ReportType type = ReportType::kExpedited;
  Sex sex = Sex::kUnknown;
  // Age in years; < 0 means unreported.
  double age = -1.0;
  std::string country;  // ISO-like two-letter code

  // Verbatim drug names as reported (may contain misspellings, brand names,
  // dose decorations) and reaction preferred terms.
  std::vector<std::string> drugs;
  std::vector<std::string> reactions;

  uint64_t primary_id() const { return case_id * 100 + case_version; }
};

// One FAERS quarterly extract.
struct QuarterDataset {
  int year = 0;
  int quarter = 0;  // 1..4
  std::vector<Report> reports;

  std::string Label() const {
    return std::to_string(year) + "Q" + std::to_string(quarter);
  }
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_REPORT_H_
