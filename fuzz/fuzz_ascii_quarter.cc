// Fuzz harness for the FAERS quarterly ASCII parser — the outermost
// untrusted-input surface: real extracts arrive from the FDA as flat files
// and PR 1's corruption study showed how many ways they rot in transit.
//
// Input layout: the blob is split on 0x1F (unit separator, never valid in
// the tables) into DEMO / DRUG / REAC file contents. Both the strict and
// the quarantine read paths run; any Status outcome is acceptable, crashes
// and sanitizer reports are not. A strict read that succeeds must also give
// every report the raw names its DRUG/REAC rows carry, in row order: each
// name id resolves to its field's text, or the harness traps.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "faers/ascii_format.h"
#include "faers/ingest.h"
#include "fuzz/fuzz_target.h"
#include "util/delimited.h"

namespace {

uint64_t ParseId(std::string_view field) {
  uint64_t id = 0;
  std::from_chars(field.data(), field.data() + field.size(), id);
  return id;
}

// Index of `column` in a header row, or -1 when absent.
int Column(const maras::DelimitedRow& header, std::string_view column) {
  for (size_t i = 0; i < header.fields.size(); ++i) {
    if (header.fields[i] == column) return static_cast<int>(i);
  }
  return -1;
}

// Walks `content` and appends each row's `payload` text to the expected
// names of the report its primaryid names.
void ExpectedNames(std::string_view content, std::string_view payload,
                   const std::unordered_map<uint64_t, size_t>& report_of,
                   std::vector<std::vector<std::string>>* expected) {
  int c_primary = -1, c_payload = -1;
  MARAS_IGNORE_STATUS(maras::DelimitedReader('$').Parse(
      content, nullptr,
      [&](const maras::DelimitedRow& header) {
        c_primary = Column(header, "primaryid");
        c_payload = Column(header, payload);
      },
      [&](const maras::DelimitedRow& row) {
        const uint64_t primary =
            ParseId(row.fields[static_cast<size_t>(c_primary)]);
        (*expected)[report_of.at(primary)].emplace_back(
            row.fields[static_cast<size_t>(c_payload)]);
      }));
}

// True when every report's drug and reaction ids resolve to the texts of
// its DRUG and REAC rows. Only called after a strict read succeeded, which
// kept every DEMO row in order and joined every child row.
bool NamesMatchTables(const maras::faers::AsciiQuarterFiles& files,
                      const maras::faers::QuarterDataset& dataset) {
  std::unordered_map<uint64_t, size_t> report_of;
  int d_primary = -1;
  MARAS_IGNORE_STATUS(maras::DelimitedReader('$').Parse(
      files.demo, nullptr,
      [&](const maras::DelimitedRow& header) {
        d_primary = Column(header, "primaryid");
      },
      [&](const maras::DelimitedRow& row) {
        const size_t index = report_of.size();
        report_of.emplace(
            ParseId(row.fields[static_cast<size_t>(d_primary)]), index);
      }));
  if (report_of.size() != dataset.reports.size()) return false;
  std::vector<std::vector<std::string>> drugs(dataset.reports.size());
  std::vector<std::vector<std::string>> reactions(dataset.reports.size());
  ExpectedNames(files.drug, "drugname", report_of, &drugs);
  ExpectedNames(files.reac, "pt", report_of, &reactions);
  for (size_t i = 0; i < dataset.reports.size(); ++i) {
    const maras::faers::Report& report = dataset.reports[i];
    for (maras::faers::NameId id : report.drugs) {
      if (id >= dataset.names.size()) return false;
    }
    for (maras::faers::NameId id : report.reactions) {
      if (id >= dataset.names.size()) return false;
    }
    if (dataset.Names(report.drugs) != drugs[i] ||
        dataset.Names(report.reactions) != reactions[i]) {
      return false;
    }
  }
  return true;
}

maras::faers::AsciiQuarterFiles SplitInput(std::string_view blob) {
  maras::faers::AsciiQuarterFiles files;
  const size_t first = blob.find('\x1f');
  if (first == std::string_view::npos) {
    files.demo = std::string(blob);
    return files;
  }
  files.demo = std::string(blob.substr(0, first));
  const size_t second = blob.find('\x1f', first + 1);
  if (second == std::string_view::npos) {
    files.drug = std::string(blob.substr(first + 1));
    return files;
  }
  files.drug = std::string(blob.substr(first + 1, second - first - 1));
  files.reac = std::string(blob.substr(second + 1));
  return files;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view blob(reinterpret_cast<const char*>(data), size);
  const maras::faers::AsciiQuarterFiles files = SplitInput(blob);

  auto strict = maras::faers::ReadAsciiQuarter(files, 2014, 1);
  if (strict.ok()) {
    if (!NamesMatchTables(files, *strict)) __builtin_trap();
    // A parse that succeeded strictly must also round-trip through the
    // writer without crashing.
    auto rewritten = maras::faers::WriteAsciiQuarter(*strict);
    MARAS_IGNORE_STATUS(rewritten);  // outcome irrelevant, only no-crash
  }

  maras::faers::IngestOptions options;
  options.policy = maras::faers::IngestPolicy::kQuarantine;
  options.max_bad_row_fraction = 1.0;  // never abort: walk every row
  options.max_quarantined_rows = 64;   // bound capture memory
  maras::faers::IngestReport report;
  auto lenient =
      maras::faers::ReadAsciiQuarter(files, 2014, 1, options, &report);
  MARAS_IGNORE_STATUS(lenient);  // outcome irrelevant, only no-crash
  return 0;
}
