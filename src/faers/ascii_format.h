#ifndef MARAS_FAERS_ASCII_FORMAT_H_
#define MARAS_FAERS_ASCII_FORMAT_H_

#include <string>

#include "faers/ingest.h"
#include "faers/report.h"
#include "util/statusor.h"

namespace maras::faers {

// Reader/writer for the FAERS quarterly ASCII exchange format: three
// '$'-delimited tables with one header line each, keyed by primaryid.
//
//   DEMOyyQq.txt: primaryid$caseid$caseversion$rept_cod$age$sex$occr_country
//   DRUGyyQq.txt: primaryid$caseid$drug_seq$role_cod$drugname
//   REACyyQq.txt: primaryid$caseid$pt
//
// This mirrors the public FAERS layout closely enough that the parsing,
// joining and case-versioning logic exercised on real extracts is exercised
// here identically; columns FAERS carries that MARAS never reads are
// omitted.
struct AsciiQuarterFiles {
  std::string demo;
  std::string drug;
  std::string reac;
};

// Serializes `dataset` into the three table files.
maras::StatusOr<AsciiQuarterFiles> WriteAsciiQuarter(
    const QuarterDataset& dataset);

// Writes the three files into `directory` using FAERS naming
// (DEMO14Q1.txt etc.). The directory must exist.
maras::Status WriteAsciiQuarterToDir(const QuarterDataset& dataset,
                                     const std::string& directory);

// Parses the three tables back into a dataset. Reports are reassembled by
// primaryid; a DRUG/REAC row whose primaryid has no DEMO row is Corruption.
// Equivalent to the policy-aware overload under IngestPolicy::kStrict.
maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter);

// Policy-aware parse. Under kStrict the first malformed row fails the whole
// quarter (historical behavior). Under kQuarantine malformed rows — wrong
// field counts, garbage numerics, unknown codes, duplicate primaryids,
// orphan DRUG/REAC rows — are skipped and captured with file/line/column/
// reason diagnostics, and the read fails only when the rejected fraction
// exceeds `options.max_bad_row_fraction`. `report`, when non-null,
// accumulates the accounting under either policy.
maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter,
    const IngestOptions& options, IngestReport* report = nullptr);

// Reads from `directory` using FAERS naming for the given year/quarter.
// IOErrors name the file (DEMO/DRUG/REAC) that failed.
maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter);

maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter,
    const IngestOptions& options, IngestReport* report = nullptr);

}  // namespace maras::faers

#endif  // MARAS_FAERS_ASCII_FORMAT_H_
